package main

// Example runs the walkthrough end to end: it tracks the fire front step
// by step. Its whole output is pinned, so a change that moves a printed
// number fails here.
func Example() {
	main()
	// Output:
	// step  zone-budget-max  NMSE    hotspot(truth)   hotspot(est)  perim(truth)  perim(est)
	//    0               13  0.1065  ( 7, 5)          ( 6, 7)                  40          38
	//    1               45  0.1037  ( 9, 7)          (14, 1)                  54          69
	//    2               36  0.1235  (10, 8)          (11, 7)                  69          89
	//    3               45  0.0889  (12,10)          (12,10)                  84          78
	//    4               31  0.0528  (14,11)          (13,12)                 105         107
	//
	// final-round zone budgets (4x4, row-major):
	//   19  12   9   9
	//   33  26  11   8
	//    8  11  11   8
	//   11   8   8   8
}
