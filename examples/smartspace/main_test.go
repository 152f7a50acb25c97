package main

// Example runs the walkthrough end to end: it raises its subscribers'
// alerts round by round. Its whole output is pinned, so a change that
// moves a printed number fails here.
func Example() {
	main()
	// Output:
	// round  NMSE    denied  alerts
	//     0  0.0002       1  [comfort@z3 security@z3]
	//     1  0.0004       1  [comfort@z3 security@z3]
	//     2  0.0004       1  [comfort@z3 security@z3]
	//
	// zone3 temperature log: 3 records, mean 23.43 °C, max 23.54 °C
	// series in store: [zone0/temp zone1/temp zone2/temp zone3/temp]
}
