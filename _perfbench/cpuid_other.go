//go:build !amd64

package main

import "runtime"

// cpuModel has no portable source off amd64 that stays inside the checkout.
func cpuModel() string { return "unknown " + runtime.GOARCH }
