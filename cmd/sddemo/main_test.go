package main

func Example() {
	main()
	// Output:
	// SocksDirect demo cluster: alpha (SD), beta (SD), oldbox (plain TCP)
	//   • intra-host SHM echo RTT: 100 ns (transport: user-space ring)
	//   • inter-host RDMA echo RTT: 1897 ns (after capability probe)
	//   • zero-copy 256KiB round trip: 81660 ns, payload intact: true
	//   • forked child reused the inter-host socket (fresh QP, shared rings)
	//   • TCP fallback to oldbox answered "legacy" (fallback=true)
	//   • all connections closed (shutdown handshake + refcounts)
	// demo finished at virtual t=62.180 ms
}
