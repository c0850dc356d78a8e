//go:build !linux

package main

import "time"

func nanosleep(d time.Duration) { time.Sleep(d) }
