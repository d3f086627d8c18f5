package main

func Example() {
	main()
	// Output:
	// [server] listening on :7777
	// [client] connected over user-space queues
	// [server] got "hello", echoing
	// [client] echo "hello" in 100 ns (virtual)
	// [server] got "socksdirect", echoing
	// [client] echo "socksdirect" in 102 ns (virtual)
	// [server] got "bye", echoing
	// [client] echo "bye" in 100 ns (virtual)
	// [server] connection closed: EOF
	// simulation finished at t=10522 ns
}
