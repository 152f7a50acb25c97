package mat

// SetAVX2 lets the external tests of this directory run the kernels' Go
// loops or vector bodies; it returns the function that restores the
// start-up choice.
func SetAVX2(on bool) (restore func()) {
	saved := useAVX2
	useAVX2 = on && haveAVX2()
	return func() { useAVX2 = saved }
}
