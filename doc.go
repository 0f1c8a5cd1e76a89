// Package repro is a Go reproduction of "Verifying concurrent,
// crash-safe systems with Perennial" (Chajed, Tassarotti, Kaashoek,
// Zeldovich; SOSP 2019).
//
// The paper's deductive Coq/Iris framework is reproduced as an
// executable one: a modeled Goose machine (internal/machine,
// internal/disk, internal/gfs), a capability runtime enforcing the
// Perennial logic's ghost rules (internal/core), a transition-system
// specification language (internal/tsl, internal/spec), and a stateless
// model checker that checks concurrent recovery refinement over every
// interleaving and crash point in a bounded space (internal/explore,
// internal/history). On top sit the paper's artifacts: the
// replicated-disk, shadow-copy, write-ahead-log, and group-commit
// examples (internal/examples/...), the Mailboat mail server with SMTP
// and POP3 front ends (internal/mailboat, internal/smtp,
// internal/pop3), the GoMail and simulated-CMAIL baselines
// (internal/gomail, internal/cmail), and the postal/rabid-style workload
// generator (internal/postal).
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured-vs-paper results.
package repro
