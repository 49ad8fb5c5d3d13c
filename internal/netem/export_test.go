package netem

// Backlog returns the number of items waiting or in service.
func (p *Proc) Backlog() int { return p.queued }
