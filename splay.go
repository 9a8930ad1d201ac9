// Package splay is the SDK of the SPLAY reproduction: an integrated
// system for prototyping, deploying and evaluating large-scale
// distributed applications, after Leonini, Rivière and Felber, "SPLAY:
// Distributed Systems Evaluation Made Simple" (NSDI 2009).
//
// Applications implement App and run against an Env: a capability-scoped
// event-driven environment with cooperative tasks, periodic activities,
// RPC, sandboxed sockets and filesystem, logging, metric instruments and
// per-job deployment information. The same application code runs under
// the deterministic simulation runtime (virtual time, simulated testbeds
// — ModelNet-style clusters, a PlanetLab model, trace- or script-driven
// churn) and under the live runtime on real networks.
//
// Experiments are declared as a Scenario — testbed, applications, churn,
// collection — and executed with one call:
//
//	res, err := splay.Scenario{
//	    Testbed: splay.Live(5),
//	    Apps: []splay.AppSpec{{
//	        Name: "chord", Nodes: 4,
//	        Params: []byte(`{"bits":24,"lookups_per_min":60}`),
//	    }},
//	    Duration: 30 * time.Second,
//	}.Run(ctx)
//
// Scenario.Run provisions a controller and daemons (simulated or live),
// deploys the jobs through the REGISTER/LIST/START chain, streams
// aggregated metrics when asked to, and returns a typed Result.
// Scenario.Start returns a Session instead, for experiments that
// interleave custom phases with the provisioned system.
//
// Entry points:
//   - Scenario / Session / Env: the authoring and deployment SDK.
//   - cmd/splay-experiments: every figure/table of the paper.
//   - cmd/splayd, cmd/splayctl: the distributed deployment chain for
//     real multi-host testbeds — daemons, the resident platform
//     (splayd -host), and its client.
//
// See DESIGN.md for architecture and EXPERIMENTS.md for the recorded
// reproduction results.
package splay
