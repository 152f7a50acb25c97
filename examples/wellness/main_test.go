package main

// Example runs the walkthrough end to end: it senses each member's
// context and sums up the family. Its whole output is pinned, so a
// change that moves a printed number fails here.
func Example() {
	main()
	// Output:
	// member  activity  indoor  stress  cadence  accel-energy(mJ)  vs-full-sampling
	// alice   driving   true    0.58    2.2/s           0.150  88% saved
	// bob     walking   false   0.42    2.0/s           0.150  88% saved
	// carol   idle      true    0.41    0.0/s           0.150  88% saved
	// dave    walking   false   0.40    2.0/s           0.150  88% saved
	//
	// family health indicator (4 members):
	//   majority activity     walking
	//   combined stress       0.45
	//   indoor fraction       50%
	//   assessment            active and healthy
}
