// Package setter writes an option field of package options from outside
// it.
package setter

import "repro/internal/lint/testdata/src/options"

// Configure sets Remote by assignment.
func Configure() options.Config {
	c := options.Default()
	c.Remote = 2
	return options.New(c)
}
