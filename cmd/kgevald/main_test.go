package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs main itself when the test binary is started by
// TestBadSizeFlagsExit, with the arguments it passes.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("KGEVALD_MAIN_ARGS"); ok {
		os.Args = append([]string{"kgevald"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// badSizes are size flags that used to fall back to a default, or switch
// the memory gate off, without a word.
var badSizes = []struct {
	args string
	flag string
}{
	{"-workers -1", "-workers"},
	{"-eval-workers -2", "-eval-workers"},
	{"-queue -1", "-queue"},
	{"-cache -8", "-cache"},
	{"-mem-budget-mb -1", "-mem-budget-mb"},
	{"-mem-budget-mb 8796093022208", "-mem-budget-mb"}, // 2⁴³ MiB is 2⁶³ bytes: << 20 overflows
}

// Each bad size exits 2 with a message naming its flag and the usage text,
// before the daemon listens or loads anything. A daemon that starts instead
// is killed after ten seconds.
func TestBadSizeFlagsExit(t *testing.T) {
	for _, c := range badSizes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "KGEVALD_MAIN_ARGS=-addr 127.0.0.1:0 -dataset codexs-sim "+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("kgevald %s: %v, want exit status 2\n%s", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), "kgevald: "+c.flag) || !strings.Contains(string(out), "Usage of") {
			t.Errorf("kgevald %s: the output names no %s or shows no usage:\n%s", c.args, c.flag, out)
		}
	}
}

// checkSizes takes 0 (the default) and every positive size, up to the
// largest budget whose bytes fit in an int64.
func TestCheckSizesAcceptsDefaultsAndPositives(t *testing.T) {
	for _, c := range []struct {
		workers, evalWorkers, queue, cache int
		mb                                 int64
	}{
		{0, 0, 0, 0, 0},
		{2, 4, 128, 8, 1024},
		{1, 1, 1, 1, 1<<43 - 1},
	} {
		if err := checkSizes(c.workers, c.evalWorkers, c.queue, c.cache, c.mb); err != nil {
			t.Errorf("checkSizes%v: %v", c, err)
		}
	}
}
