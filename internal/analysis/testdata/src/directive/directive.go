// Package dirdemo holds malformed //peachstar: directives; every one must
// surface as a finding rather than silently disabling a check.
package dirdemo

//peachstar:hotpath
func retiredKind() {}

//peachstar:nondeterministic
func missingReason() {}
