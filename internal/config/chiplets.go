package config

import "fmt"

// ChipletPlan names one of the paper's chiplet organizations
// (§VII-C.1 / Fig. 18). Chiplet 0 always holds the cores and LdB.
type ChipletPlan int

const (
	// OneChiplet places all accelerators with the cores.
	OneChiplet ChipletPlan = 1
	// TwoChiplets is the base design: cores+LdB, and one accelerator
	// chiplet with everything else.
	TwoChiplets ChipletPlan = 2
	// ThreeChiplets: TCP+(De)Encr on one; RPC+(De)Ser+(De)Cmp on another.
	ThreeChiplets ChipletPlan = 3
	// FourChiplets: TCP+(De)Encr; RPC+(De)Ser; (De)Cmp.
	FourChiplets ChipletPlan = 4
	// SixChiplets: TCP, (De)Encr, RPC, (De)Ser, (De)Cmp each separate.
	SixChiplets ChipletPlan = 6
)

// AllChipletPlans lists the organizations evaluated in Fig. 18.
func AllChipletPlans() []ChipletPlan {
	return []ChipletPlan{OneChiplet, TwoChiplets, ThreeChiplets, FourChiplets, SixChiplets}
}

func (p ChipletPlan) String() string { return fmt.Sprintf("%d-chiplet", int(p)) }

// ApplyChipletPlan rewrites the config's accelerator-to-chiplet mapping
// to the named organization.
func (c *Config) ApplyChipletPlan(p ChipletPlan) error {
	assign := func(m map[AccelKind]int, n int) {
		c.Chiplets = n
		for k := AccelKind(0); k < NumAccelKinds; k++ {
			c.ChipletOf[k] = 0
		}
		// order-insensitive: each kind's chiplet is written once.
		for k, ch := range m {
			c.ChipletOf[k] = ch
		}
	}
	switch p {
	case OneChiplet:
		assign(map[AccelKind]int{}, 1)
	case TwoChiplets:
		assign(map[AccelKind]int{
			TCP: 1, Encr: 1, Decr: 1, RPC: 1, Ser: 1, Dser: 1, Cmp: 1, Dcmp: 1,
		}, 2)
	case ThreeChiplets:
		assign(map[AccelKind]int{
			TCP: 1, Encr: 1, Decr: 1,
			RPC: 2, Ser: 2, Dser: 2, Cmp: 2, Dcmp: 2,
		}, 3)
	case FourChiplets:
		assign(map[AccelKind]int{
			TCP: 1, Encr: 1, Decr: 1,
			RPC: 2, Ser: 2, Dser: 2,
			Cmp: 3, Dcmp: 3,
		}, 4)
	case SixChiplets:
		assign(map[AccelKind]int{
			TCP:  1,
			Encr: 2, Decr: 2,
			RPC: 3,
			Ser: 4, Dser: 4,
			Cmp: 5, Dcmp: 5,
		}, 6)
	default:
		return fmt.Errorf("config: unknown chiplet plan %d", int(p))
	}
	return nil
}
