// Package lib is the checker's fixture: one exported function of each kind.
package lib

// Dead has no caller at all.
func Dead() {}

// Called is called from the app.
func Called() {}

// TestOnly is called only from a test file.
func TestOnly() {}

// Kept has no caller but is allowlisted.
func Kept() {}

// T carries a method called through a selector.
type T struct{}

// Used is called from the app.
func (T) Used() {}

// String satisfies fmt.Stringer, so it is exempt.
func (T) String() string { return "" }
