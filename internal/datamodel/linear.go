package datamodel

import (
	"fmt"
	"strings"
)

// RuleSignature computes the construction-rule identity of a chunk: two
// chunks with equal signatures "conform to similar/same construction rules"
// in the sense of §III, making their instantiations interchangeable donor
// material. The signature captures the data type, width/size class,
// endianness, and the constraints that affect interchangeability; it
// deliberately omits the chunk's name and model, because cross-model
// donation is the whole point (Fig. 2's α1/α2 rule similarity).
//
// Fields whose content is recomputed by File Fixup (relations, fixups) and
// token fields (they define the packet type) are not donor-compatible with
// anything; they get a unique non-donatable signature.
func RuleSignature(c *Chunk) string {
	if c.sig != "" {
		return c.sig // precomputed by Model.Validate; no allocation
	}
	return computeRuleSignature(c)
}

// computeRuleSignature builds the signature string; see RuleSignature.
func computeRuleSignature(c *Chunk) string {
	if c.Fix != nil || c.Rel != nil {
		return fmt.Sprintf("fixed/%s/%s", c.Kind, c.Name)
	}
	if c.Kind == Number && c.Token {
		return fmt.Sprintf("token/%d/%d", c.Width, c.Default)
	}
	switch c.Kind {
	case Number:
		legal := ""
		if len(c.Legal) > 0 {
			// The legal set constrains interchangeability: a donor
			// must have been produced under the same constraint.
			parts := make([]string, len(c.Legal))
			for i, v := range c.Legal {
				parts[i] = fmt.Sprintf("%d", v)
			}
			legal = "/legal:" + strings.Join(parts, ",")
		}
		e := "be"
		if c.Endian == Little {
			e = "le"
		}
		// A number's name is part of its construction rule: "addr" in
		// one packet type and "addr" in another instantiate the same
		// rule (the write-register/write-coil example of §III), while
		// two same-width numbers with different roles (a version
		// octet, a header length) do not — donating across roles
		// destroys the validity Algorithm 3 exists to preserve.
		return fmt.Sprintf("num/%s/w%d/%s%s", c.Name, c.Width, e, legal)
	case String:
		return fmt.Sprintf("str/%s", sizeClass(c))
	case Blob:
		return fmt.Sprintf("blob/%s", sizeClass(c))
	default:
		return fmt.Sprintf("node/%s", c.Kind)
	}
}

// sizeClass buckets String/Blob sizes so that a donor of a compatible size
// range can fill a field even when exact sizes differ (File Fixup repairs
// the size relations afterwards).
func sizeClass(c *Chunk) string {
	if c.Size != Variable {
		return fmt.Sprintf("fix%d", c.Size)
	}
	max := maxSize(c)
	switch {
	case max <= 8:
		return "var-small"
	case max <= 64:
		return "var-mid"
	default:
		return "var-large"
	}
}

// Donatable reports whether a chunk accepts donor puzzles at all.
func Donatable(c *Chunk) bool {
	return c.Fix == nil && c.Rel == nil && !(c.Kind == Number && c.Token)
}
