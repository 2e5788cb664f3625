package main

import (
	"strings"
	"testing"
)

// flagSet turns a command line into what flag.Visit reports: every flag
// given, with its value. -stream, -resume and -metrics are the boolean
// flags; every other flag takes the next argument unless written -name=v.
func flagSet(args string) map[string]string {
	set := make(map[string]string)
	toks := strings.Fields(args)
	for i := 0; i < len(toks); i++ {
		name := strings.TrimLeft(toks[i], "-")
		if n, v, ok := strings.Cut(name, "="); ok {
			set[n] = v
			continue
		}
		switch name {
		case "stream", "resume", "metrics":
			set[name] = "true"
		default:
			i++
			set[name] = toks[i]
		}
	}
	return set
}

func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		args string
		want string // the error, or "" to accept
	}{
		// The sisg-train command lines of README.md, ci.yml and the verify skill.
		{"-corpus Sim25K -variant SISG-F-U-D -out model.emb", ""},
		{"-corpus Sim25K -workers 8", ""},
		{"-stream -corpus tiny -reserve-items 40 -launch-every 25 -drift-every 400 -publish-every 500 -vocab-budget 900 -serve localhost:8080", ""},
		{"-stream -corpus tiny -stream-sessions 0 -publish-every 500 -reserve-items 40 -launch-every 25 -drift-every 400 -vocab-budget 900 -stream-rate 2000 -serve localhost:8093", ""},
		{"-corpus Sim25K -workers 8 -metrics -pprof-addr localhost:6060", ""},
		{"-corpus Sim25K -checkpoint-dir ck -checkpoint-every 1000000", ""},
		{"-corpus Sim25K -checkpoint-dir ck -checkpoint-every 1000000 -resume", ""},
		{"-corpus Sim25K -workers 8 -max-restarts 3", ""},
		{"-corpus Sim25K -workers 8 -transport=tcp", ""},
		{"-corpus quick -workers 2 -transport tcp", ""},
		{"-workers 4 -max-restarts 2", ""},
		{"-metrics", ""},
		{"-corpus quick -warm-start model.emb -epochs 1 -lr 0.01", ""},

		// Flags the chosen mode would drop.
		{"-transport tcp", "-transport has no effect without -workers"},
		{"-workers 0 -max-restarts 2", "-max-restarts has no effect without -workers"},
		{"-warm-start m.emb -workers 4", "-workers has no effect with -warm-start, which trains locally"},
		{"-stream -out m.emb", "-out has no effect with -stream"},
		{"-stream -corpus tiny -epochs 3", "-epochs has no effect with -stream"},
		{"-stream -workers 2", "-workers has no effect with -stream"},
		{"-serve localhost:8080", "-serve has no effect without -stream"},
		{"-stream=false -publish-every 10", "-publish-every has no effect without -stream"},
		{"-checkpoint-every 100", "-checkpoint-every has no effect without -checkpoint-dir"},
		{"-resume", "-resume has no effect without -checkpoint-dir"},
	}
	for _, c := range cases {
		err := checkModeFlags(flagSet(c.args))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q refused: %v", c.args, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%q: error %v, want %q", c.args, err, c.want)
		}
	}
}
