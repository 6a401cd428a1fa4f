package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Instruction counts are the benchmark's gated measure of work. On the
// reference host, a 2-vCPU VM, the wall time of a fixed operation moves by
// up to 1.8x between runs minutes apart: the neighbours' use of the shared
// caches and memory changes the instructions per cycle, while the clock
// rate and the instructions retired stay put (see README.md). CPU time
// moves with the wall time, so only the retired-instruction count repeats.

// perfEventAttr is struct perf_event_attr up to PERF_ATTR_SIZE_VER5.
type perfEventAttr struct {
	Type           uint32
	Size           uint32
	Config         uint64
	SamplePeriod   uint64
	SampleType     uint64
	ReadFormat     uint64
	Bits           uint64
	WakeupEvents   uint32
	BPType         uint32
	Config1        uint64
	Config2        uint64
	BranchSample   uint64
	SampleRegsUser uint64
	SampleStack    uint32
	ClockID        int32
	SampleRegsIntr uint64
	AuxWatermark   uint32
	SampleMaxStack uint16
	_              uint16
}

const (
	perfTypeHardware        = 0
	perfCountHWInstructions = 1
	perfFormatTotalEnabled  = 1 << 0
	perfFormatTotalRunning  = 1 << 1
	perfBitInherit          = 1 << 1
	perfBitExcludeKernel    = 1 << 5
	perfBitExcludeHV        = 1 << 6
)

// instrCounter counts the user-mode instructions one process retires, over
// all of its threads: one counter per thread that exists when it opens,
// each inherited by the threads that thread creates later.
type instrCounter struct {
	fds []int
}

// openInstr attaches a counter to every thread of pid. It re-reads the
// thread list until a pass finds no thread it has not attached, so a thread
// created by a not-yet-attached thread is not missed.
func openInstr(pid int) (*instrCounter, error) {
	c := &instrCounter{}
	seen := map[int]bool{}
	for pass := 0; pass < 16; pass++ {
		ents, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			c.close()
			return nil, err
		}
		added := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || seen[tid] {
				continue
			}
			fd, err := perfOpenInstr(tid)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("count instructions of thread %d: %w (hardware performance counters are required)", tid, err)
			}
			seen[tid] = true
			c.fds = append(c.fds, fd)
			added = true
		}
		if !added {
			return c, nil
		}
	}
	c.close()
	return nil, errors.New("process kept creating threads while its counters were attached")
}

func perfOpenInstr(tid int) (int, error) {
	attr := perfEventAttr{
		Type:       perfTypeHardware,
		Config:     perfCountHWInstructions,
		ReadFormat: perfFormatTotalEnabled | perfFormatTotalRunning,
		Bits:       perfBitInherit | perfBitExcludeKernel | perfBitExcludeHV,
	}
	attr.Size = uint32(unsafe.Sizeof(attr))
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN,
		uintptr(unsafe.Pointer(&attr)), uintptr(tid), ^uintptr(0), ^uintptr(0), 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// read returns the instructions retired so far. A counter the kernel had to
// share with other events is scaled by the share of time it ran, as perf
// stat does.
func (c *instrCounter) read() (uint64, error) {
	var sum uint64
	var buf [24]byte
	for _, fd := range c.fds {
		n, err := syscall.Read(fd, buf[:])
		if err != nil {
			return 0, err
		}
		if n != len(buf) {
			return 0, fmt.Errorf("short counter read: %d bytes", n)
		}
		val := binary.NativeEndian.Uint64(buf[0:])
		enabled := binary.NativeEndian.Uint64(buf[8:])
		running := binary.NativeEndian.Uint64(buf[16:])
		if running > 0 && running < enabled {
			val = uint64(float64(val) * float64(enabled) / float64(running))
		}
		sum += val
	}
	return sum, nil
}

func (c *instrCounter) close() {
	for _, fd := range c.fds {
		_ = syscall.Close(fd)
	}
	c.fds = nil
}

// instrOf runs op and returns the millions of instructions c counted
// while it ran.
func instrOf(c *instrCounter, op func() error) (float64, error) {
	from, err := c.read()
	if err != nil {
		return 0, err
	}
	if err := op(); err != nil {
		return 0, err
	}
	to, err := c.read()
	if err != nil {
		return 0, err
	}
	return float64(to-from) / 1e6, nil
}
