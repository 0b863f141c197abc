package main

import "example.com/mod/lib"

func main() {
	lib.Called()
	lib.T{}.Used()
}
