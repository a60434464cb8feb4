package threadgroup

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/task"
	"repro/internal/vm"
)

// The accessors below read a service's group state for the tests; no
// kernel code asks another kernel's service these questions.

// Members returns, at the origin, the current member->kernel map.
func (s *Service) Members(gid vm.GID) (map[task.ID]msg.NodeID, error) {
	g, ok := s.groups[gid]
	if !ok {
		return nil, errNoGroup
	}
	if !g.isOrigin {
		return nil, errNotOrigin
	}
	out := make(map[task.ID]msg.NodeID, len(g.members))
	for id, m := range g.members {
		out[id] = m.node
	}
	return out, nil
}

// LocalTasks returns how many live member tasks of gid run on this kernel.
func (s *Service) LocalTasks(gid vm.GID) int {
	g, ok := s.groups[gid]
	if !ok {
		return 0
	}
	return len(g.local)
}

// Shadows returns how many shadow tasks of gid remain on this kernel.
func (s *Service) Shadows(gid vm.GID) int {
	g, ok := s.groups[gid]
	if !ok {
		return 0
	}
	return len(g.shadows)
}

// TakeSignals consumes and returns the pending signals of a local task.
func (s *Service) TakeSignals(gid vm.GID, id task.ID) ([]int, error) {
	g, ok := s.groups[gid]
	if !ok {
		return nil, errNoGroup
	}
	t, ok := g.local[id]
	if !ok {
		return nil, fmt.Errorf("threadgroup: task %d not live on kernel %d", id, s.node)
	}
	sigs := t.PendingSignals
	t.PendingSignals = nil
	return sigs, nil
}
