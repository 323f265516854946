package sim

// PendingBy reports whether a wakeup at or before h is still queued: the
// state AdvanceTo(h) must never return in unless the kernel finished.
func (k *Kernel) PendingBy(h Time) bool {
	if k.laneHead < len(k.lane) && k.now <= h {
		return true
	}
	return len(k.events) > 0 && k.events[0].at <= h
}
