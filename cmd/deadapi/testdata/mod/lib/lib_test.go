package lib

import "testing"

func TestOnlyCaller(t *testing.T) { TestOnly() }
