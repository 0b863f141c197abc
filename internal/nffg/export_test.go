package nffg

import "fmt"

// Test helpers of package nffg that the external tests need: those use embed,
// which imports nffg, so they live in package nffg_test.
var (
	PrefixedGraph  = prefixedGraph
	ReferenceMerge = referenceMerge
)

// setRules replaces i's flowtable with rules, as a decoded graph may hold
// them: AddFlowrule refuses a second rule of one Match.
func setRules(i *Infra, rules ...*Flowrule) { i.rules = edgeList[Flowrule]{tail: rules} }

// referenceMerge is Merge as it was before it shared sealed sources: every
// entity of other is deep-copied into g, in sorted ID order.
func referenceMerge(g, other *NFFG) error {
	for _, id := range other.InfraIDs() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: infra %s present in both graphs", ErrDuplicateID, id)
		}
	}
	for _, id := range other.NFIDs() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: NF %s present in both graphs", ErrDuplicateID, id)
		}
	}
	for _, id := range other.InfraIDs() {
		g.Infras.set(id, copyInfra(other.Infras.Get(id)))
	}
	for _, id := range other.NFIDs() {
		g.NFs.set(id, copyNF(other.NFs.Get(id)))
	}
	for _, id := range other.SAPIDs() {
		if _, ok := g.SAPs.Lookup(id); ok {
			continue // shared SAP: stitching point
		}
		p := *other.SAPs.Get(id).Port
		g.SAPs.set(id, &SAP{ID: id, Name: other.SAPs.Get(id).Name, Port: &p})
	}
	for l := range other.Links() {
		cl := *l
		if g.LinkByID(l.ID) != nil {
			cl.ID = fmt.Sprintf("%s@%s", l.ID, other.ID)
		}
		g.links.add(&cl)
	}
	for h := range other.Hops() {
		ch := *h
		g.hops.add(&ch)
	}
	for r := range other.Reqs() {
		cr := *r
		cr.HopIDs = append([]string(nil), r.HopIDs...)
		g.reqs.add(&cr)
	}
	return nil
}
