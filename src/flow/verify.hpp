// Structural validation of a matching against its ConnectionProblem.
//
// The simulator's verify_incremental safety net used to compare only served
// *counts* against a reference solve, so a wrong-but-same-size assignment
// (server not in the request's candidate set, a box over its slot budget)
// passed silently — exactly the failure class an incremental-repair matcher
// is most likely to introduce. validate_assignment checks the assignment
// itself and throws std::logic_error naming the first offending request, so
// a verification failure pinpoints the broken edge instead of reporting a
// bare cardinality mismatch. The CSR round engine's verify path funnels
// through it.
#pragma once

#include "flow/bipartite.hpp"

namespace p2pvod::flow {

/// Throws std::logic_error (with the offending request/box in the message)
/// unless `result` is a well-formed assignment for `problem`:
///   - one assignment entry per request, each -1 or a valid box id;
///   - every matched server is in that request's candidate set;
///   - no box serves more connections than its capacity;
///   - `served` equals the number of matched requests and `complete` agrees.
/// Does NOT check maximality — callers compare `served` against a reference
/// solve for that.
void validate_assignment(const ConnectionProblem& problem,
                         const MatchResult& result);

}  // namespace p2pvod::flow
