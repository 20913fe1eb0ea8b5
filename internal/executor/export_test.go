package executor

// Drops returns how many connection drops were survived by reconnecting to
// the still-live process (a server closing a connection it dislikes is not
// a crash).
func (p *Proc) Drops() int { return p.drops }
