// Package degradation supplies the co-run degradation figures every
// co-scheduling method in this repository consumes: Eq. 1 (computation
// degradation), the communication term of Eq. 9, and the objective
// evaluation of Eq. 6 / Eq. 13 over complete and partial schedules.
//
// Two oracle implementations are provided:
//
//   - SDCOracle drives the full cache pipeline (stack distance competition,
//     Eq. 14-15 CPU times) plus the comm.Pattern network model; it is the
//     faithful reproduction of the paper's measurement methodology.
//   - PairwiseOracle approximates d(i,S) as the sum of pairwise
//     interferences; it is O(u) per query and backs the large synthetic
//     sweeps (Figs. 12-13) where the SDC merge would dominate runtime.
//
// Oracles answer every query afresh. Cost, which each method builds once
// per solve, memoises their answers one graph node at a time: NodeCosts
// returns every member's effective degradation against the rest of the
// node from a bounded table keyed by the node's sorted process IDs. The
// memo dies with its solve.
package degradation
