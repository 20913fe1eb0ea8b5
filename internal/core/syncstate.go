package core

import (
	"sync"

	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
)

// This file defines the shared campaign state and the pluggable merge path
// that both the in-process sharded runner (Fleet) and the network fleet
// transport (internal/fleetnet) speak. The merge protocol itself — virgin
// bitmap union, corpus journal delta exchange, crash-bank dedup — is defined
// once, here; whether the peer on the other side is a worker goroutine or a
// TCP connection is a detail of the SyncPeer implementation.

// SyncState is the shared state of one fuzzing campaign: the union coverage
// accumulator, the union puzzle corpus, and a bank for crash records that
// arrive from outside the local process. Local worker engines and remote
// fleet nodes all merge into (and back out of) the same SyncState through
// Exchange, under one mutex.
type SyncState struct {
	mu      sync.Mutex
	virgin  *coverage.Virgin
	corp    *corpus.Corpus
	crashes *crash.Bank
}

// NewSyncState returns empty shared campaign state. corpusPerSig bounds
// stored puzzles per rule signature (0 = corpus default).
func NewSyncState(corpusPerSig int) *SyncState {
	return &SyncState{
		virgin:  coverage.NewVirgin(),
		corp:    corpus.New(corpusPerSig),
		crashes: crash.NewBank(),
	}
}

// SyncPeer is one party of the batched merge protocol: a local worker
// engine, or a network connection standing in for a remote fleet. Exchange
// is invoked with the shared state's components while the state lock is
// held; the peer pushes its new discoveries in and pulls the state's
// discoveries out in one atomic window. Implementations must not retain the
// arguments past the call.
type SyncPeer interface {
	Exchange(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error
}

// ExchangeFunc adapts a plain function to the SyncPeer interface, for
// one-shot locked operations on the shared state (peer registration,
// cleanup after a dropped connection).
type ExchangeFunc func(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error

// Exchange implements SyncPeer.
func (f ExchangeFunc) Exchange(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
	return f(virgin, corp, crashes)
}

// Exchange runs one batched merge window between the shared state and the
// peer, serialized against all other peers. The error is the peer's own
// (local workers never fail; a network peer reports encode/transport
// problems so the caller can drop the connection).
func (s *SyncState) Exchange(p SyncPeer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.Exchange(s.virgin, s.corp, s.crashes)
}

// Edges returns the number of distinct coverage edges in the shared union
// map — the worker-count- and host-count-independent campaign metric.
func (s *SyncState) Edges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.virgin.Edges()
}

// Figures returns the union edge count and corpus size under one lock
// acquisition — the per-window publication read of the fleet driver.
func (s *SyncState) Figures() (edges, corpusLen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.virgin.Edges(), s.corp.Len()
}

// CrashRecords snapshots the crash records that have arrived from remote
// peers (local workers keep their own banks; Fleet.Crashes folds both).
func (s *SyncState) CrashRecords() []*crash.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes.Records()
}
