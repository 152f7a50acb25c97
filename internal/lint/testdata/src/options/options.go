// Package options is the golden input of TestOptionSetterRule: one
// option field per kind of writer the rule tells apart.
package options

// Config is the option struct under test.
type Config struct {
	Remote    int // assigned by package setter: has a writer
	Keyed     int // set only in Default's keyed literal: has a writer
	Defaulted int // only defaulted by New: flagged
}

// Default is the package's own constructor literal.
func Default() Config { return Config{Keyed: 1} }

// New fills in what the caller left zero; that is not a writer.
func New(c Config) Config {
	if c.Defaulted == 0 {
		c.Defaulted = 3
	}
	return c
}
