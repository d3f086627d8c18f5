module socksdirect

go 1.23
