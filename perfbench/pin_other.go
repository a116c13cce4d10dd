//go:build !linux

package main

// pinClient is a no-op where thread affinity is not available.
func pinClient() func() { return func() {} }
