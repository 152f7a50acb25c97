package main

// Example runs the walkthrough end to end: it ranks the zones for
// rescue. Its whole output is pinned, so a change that moves a printed
// number fails here.
func Example() {
	main()
	// Output:
	// population: 160 phones reporting, 28 flagged indoors
	//
	// rescue priority (danger = indoor-occupancy x mean shaking intensity):
	// rank  zone  people  indoors  intensity  danger
	//    1     0       5        4       7.27    29.1
	//    2     1      20        4       5.70    22.8
	//    3     4      28        3       3.91    11.7
	//    4     3      20        2       4.88     9.8
	//    5     8      17        9       1.06     9.5
	//
	// dispatch: zone 0 first — 4 people indoors under intensity 7.3 shaking
}
