//go:build !race

package packet

// raceBuild is true when the tests run under the race detector.
const raceBuild = false
