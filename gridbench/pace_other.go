//go:build !linux

package main

import "time"

// sleepUntilDue blocks for about d.
func sleepUntilDue(d time.Duration) { time.Sleep(d) }
