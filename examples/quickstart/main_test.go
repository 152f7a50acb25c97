package main

// Example runs the walkthrough end to end: it runs one campaign and one
// context determination. Its whole output is pinned, so a change that
// moves a printed number fails here.
func Example() {
	main()
	// Output:
	// campaign: 90 measurements (12 mobile, 78 infrastructure)
	//   global NMSE        0.0022
	//   hotspot recovered  (7,12) = 34.5 (truth: (5,11) = 35.0)
	//   bus traffic        1933 bytes, node energy 73.0 mJ
	// context: full-window=driving compressive(30/256)=driving reconstruction NMSE 0.0064
}
