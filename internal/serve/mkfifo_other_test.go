//go:build !unix

package serve

import "errors"

func mkfifo(string) error { return errors.New("syscall.Mkfifo is unavailable on this platform") }
