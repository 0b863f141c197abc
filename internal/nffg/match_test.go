package nffg

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestPortRefString(t *testing.T) {
	cases := []struct {
		ref  PortRef
		want string
	}{
		{InfraPort("3"), "3"},
		{NFPort("fw", "1"), "nf:fw:1"},
	}
	for _, c := range cases {
		if got := c.ref.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.ref, got, c.want)
		}
		back, err := ParsePortRef(c.want)
		if err != nil {
			t.Fatalf("parse %q: %v", c.want, err)
		}
		if back != c.ref {
			t.Errorf("roundtrip %q -> %+v, want %+v", c.want, back, c.ref)
		}
	}
}

func TestParsePortRefErrors(t *testing.T) {
	for _, bad := range []string{"", "nf:", "nf:onlynf", "nf::port", "nf:fw:"} {
		if _, err := ParsePortRef(bad); err == nil {
			t.Errorf("ParsePortRef(%q) should fail", bad)
		}
	}
}

func TestFlowruleStringParse(t *testing.T) {
	cases := []*Flowrule{
		{Match: Match{InPort: InfraPort("1")}, Action: Action{Output: InfraPort("2")}},
		{Match: Match{InPort: InfraPort("1"), Tag: "chain1"}, Action: Action{Output: NFPort("fw", "1"), PopTag: true}},
		{Match: Match{InPort: NFPort("fw", "2")}, Action: Action{Output: InfraPort("3"), PushTag: "chain1"}},
		{Match: Match{InPort: InfraPort("9"), MatchUntagged: true}, Action: Action{Output: InfraPort("1"), PushTag: "x"}},
	}
	for _, f := range cases {
		s := f.String()
		back, err := parseFlowrule(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if back.Match != f.Match || back.Action != f.Action {
			t.Errorf("roundtrip %q: got %+v/%+v", s, back.Match, back.Action)
		}
	}
}

func TestParseFlowruleErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"in_port=1",                     // no arrow
		"in_port=1 -> ",                 // no output
		"-> output=1",                   // no in_port
		"bogus=1 -> output=2",           // unknown match token
		"in_port=1 -> frobnicate",       // unknown action token
		"in_port=nf: -> output=1",       // malformed NF ref
		"in_port=1 -> output=nf:broken", // malformed NF ref
	} {
		if _, err := parseFlowrule(bad); err == nil {
			t.Errorf("parseFlowrule(%q) should fail", bad)
		}
	}
}

func TestFlowruleEqual(t *testing.T) {
	a := &Flowrule{ID: "x", Priority: 1, Match: Match{InPort: InfraPort("1"), Tag: "t"}, Action: Action{Output: InfraPort("2")}, Bandwidth: 5, HopID: "h"}
	b := &Flowrule{ID: "y", Priority: 1, Match: Match{InPort: InfraPort("1"), Tag: "t"}, Action: Action{Output: InfraPort("2")}, Bandwidth: 5, HopID: "h"}
	if !a.Equal(b) {
		t.Fatal("rules differing only in ID must be equal")
	}
	b.Action.PushTag = "zz"
	if a.Equal(b) {
		t.Fatal("action change must break equality")
	}
}

// Property: String/Parse roundtrip for arbitrary well-formed rules.
func TestFlowruleRoundtripProperty(t *testing.T) {
	ports := []PortRef{InfraPort("1"), InfraPort("2"), NFPort("nfA", "1"), NFPort("nfB", "2")}
	tags := []string{"", "t1", "chainX"}
	f := func(inIdx, outIdx, tagIdx uint8, pop, untagged bool) bool {
		in := ports[int(inIdx)%len(ports)]
		out := ports[int(outIdx)%len(ports)]
		tag := tags[int(tagIdx)%len(tags)]
		r := &Flowrule{
			Match:  Match{InPort: in, Tag: tag, MatchUntagged: tag == "" && untagged},
			Action: Action{Output: out, PopTag: pop, PushTag: tags[(int(tagIdx)+1)%len(tags)]},
		}
		back, err := parseFlowrule(r.String())
		if err != nil {
			return false
		}
		return back.Match == r.Match && back.Action == r.Action
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// parseFlowrule parses the String form. ID/priority/bandwidth metadata are
// not part of the text form and are left zero.
func parseFlowrule(s string) (*Flowrule, error) {
	lhs, rhs, ok := strings.Cut(s, "->")
	if !ok {
		return nil, fmt.Errorf("nffg: flowrule %q missing \"->\"", s)
	}
	f := &Flowrule{}
	for _, tok := range splitTokens(lhs) {
		switch {
		case strings.HasPrefix(tok, "in_port="):
			p, err := ParsePortRef(strings.TrimPrefix(tok, "in_port="))
			if err != nil {
				return nil, err
			}
			f.Match.InPort = p
		case strings.HasPrefix(tok, "TAG="):
			f.Match.Tag = strings.TrimPrefix(tok, "TAG=")
		case strings.HasPrefix(tok, "DST="):
			f.Match.DstSAP = ID(strings.TrimPrefix(tok, "DST="))
		case tok == "UNTAGGED":
			f.Match.MatchUntagged = true
		default:
			return nil, fmt.Errorf("nffg: unknown match token %q", tok)
		}
	}
	for _, tok := range splitTokens(rhs) {
		switch {
		case strings.HasPrefix(tok, "output="):
			p, err := ParsePortRef(strings.TrimPrefix(tok, "output="))
			if err != nil {
				return nil, err
			}
			f.Action.Output = p
		case strings.HasPrefix(tok, "TAG="):
			f.Action.PushTag = strings.TrimPrefix(tok, "TAG=")
		case tok == "UNTAG":
			f.Action.PopTag = true
		default:
			return nil, fmt.Errorf("nffg: unknown action token %q", tok)
		}
	}
	if f.Match.InPort == (PortRef{}) {
		return nil, fmt.Errorf("nffg: flowrule %q has no in_port", s)
	}
	if f.Action.Output == (PortRef{}) {
		return nil, fmt.Errorf("nffg: flowrule %q has no output", s)
	}
	return f, nil
}

func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ";") {
		t = strings.TrimSpace(t)
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}
