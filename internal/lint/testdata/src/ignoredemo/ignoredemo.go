// Package ignoredemo is sdlint golden-test input for the //lint:ignore
// suppression mechanism, exercised through errcheck findings.
package ignoredemo

import "fmt"

func suppressed() {
	fmt.Println("same line") //lint:ignore errcheck directive on the same line suppresses

	//lint:ignore errcheck directive on the line immediately above suppresses
	fmt.Println("line above")

	//lint:ignore obshot,errcheck a multi-check directive suppresses each named check
	fmt.Println("multi check")
}

func notSuppressed() {
	//lint:ignore errcheck two lines above the finding is the wrong line; must NOT suppress

	fmt.Println("too far") // want `error result of Println is silently discarded`

	//lint:ignore obshot wrong check name; must NOT suppress errcheck
	fmt.Println("wrong check") // want `error result of Println is silently discarded`

	fmt.Println("directive after") // want `error result of Println is silently discarded`
	//lint:ignore errcheck a directive below the finding only covers its own line and the next; must NOT suppress the line above
}

func malformed() {
	//lint:ignore errcheck
	fmt.Println("reasonless") // want `error result of Println is silently discarded`
}
