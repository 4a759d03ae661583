// Package bus implements Switchboard's global message bus (Section 6): a
// topic-based publish-subscribe system with a message-queuing proxy at
// every site. Subscription filters are installed at the *publisher's*
// site proxy — inferred from the topic itself — so a published message
// crosses the wide area exactly once per subscribed site, instead of once
// per subscriber as in full-mesh broadcast (implemented here as the
// Mesh baseline for the Figure 9 comparison).
package bus

import (
	"strings"

	"switchboard/internal/simnet"
)

// Topic names follow the paper's convention, e.g.
// "/c1/e3/vnf_G/site_A/instances": chain label, egress label, VNF, the
// publisher's site, and the kind of state published. The site segment
// lets any proxy infer where subscription filters must be installed.
type Topic string

// MakeTopic assembles a topic from its components, in one allocation.
func MakeTopic(chain, egress, vnf string, site simnet.SiteID, kind string) Topic {
	return Topic("/" + chain + "/" + egress + "/" + vnf + "/site_" + string(site) + "/" + kind)
}

// PublisherSite extracts the publisher's site from the topic's first
// non-empty "site_<id>" segment. It returns false if no such segment
// exists. It allocates nothing: proxies call it on every publication and
// on every resync pass over their subscriptions.
func (t Topic) PublisherSite() (simnet.SiteID, bool) {
	rest := string(t)
	for rest != "" {
		seg := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if site, ok := strings.CutPrefix(seg, "site_"); ok && site != "" {
			return simnet.SiteID(site), true
		}
	}
	return "", false
}

// Publication is a delivered bus message.
type Publication struct {
	Topic   Topic
	Payload any
	// Hops is how many wide-area transmissions the message crossed
	// before reaching this subscriber (0 = same-site).
	Hops int
}
