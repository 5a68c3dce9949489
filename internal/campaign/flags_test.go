package campaign

import (
	"flag"
	"testing"
	"time"
)

func TestRegisterFlagsAndAliases(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs, FlagsAll)
	if err := fs.Parse([]string{"-workers", "8", "-seed", "42", "-timeout", "3s"}); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 8 || f.Seed != 42 || f.Timeout != 3*time.Second {
		t.Fatalf("flags = %+v", f)
	}
	o := f.Options()
	if o.Workers != 8 || o.Seed != 42 || o.Duration != 3*time.Second {
		t.Fatalf("options = %+v", o)
	}

	// Subset registration leaves unselected names free for the command.
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	f2 := RegisterFlags(fs2, FlagWorkers|FlagSeed)
	if fs2.Lookup("timeout") != nil {
		t.Fatal("subset registration leaked flags")
	}
	if err := fs2.Parse([]string{"-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if f2.Workers != 2 || f2.Seed != DefaultSeed {
		t.Fatalf("flags = %+v", f2)
	}
}
