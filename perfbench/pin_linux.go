package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// pinClient locks the calling goroutine to its OS thread and that thread to
// the highest-numbered CPU the process may use, so a closed-loop client that
// calls into the program in-process does not migrate between CPUs (and lose
// its caches) mid-measurement; the program's other goroutines keep every
// CPU. A client that waits on another goroutine (http-read) must not pin:
// each reply would then need a hand-off to the locked thread. It returns
// the undo function.
func pinClient() func() {
	runtime.LockOSThread()
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return runtime.UnlockOSThread
	}
	saved := mask
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			var one [16]uint64
			one[i/64] = 1 << (i % 64)
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			break
		}
	}
	return func() {
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(saved), uintptr(unsafe.Pointer(&saved)))
		runtime.UnlockOSThread()
	}
}
