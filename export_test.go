package socksdirect

import "socksdirect/internal/core"

// ConnSocket returns the Socket c was made over (nil: kernel TCP), whether or
// not it still serves c's connection.
func ConnSocket(c *Conn) *core.Socket { return c.sock }
