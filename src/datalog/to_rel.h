// Translating classical Datalog into Rel source (Section 7 lists
// "translations between Rel and other languages" as a research direction;
// the Datalog fragment is the easy, total case and doubles as a
// differential-testing bridge between the two engines in this repository).

#ifndef REL_DATALOG_TO_REL_H_
#define REL_DATALOG_TO_REL_H_

#include <string>

#include "datalog/program.h"

namespace rel {
namespace datalog {

/// Renders one rule as a Rel `def`. Body-only variables are existentially
/// quantified (Rel has no implicit quantification: unscoped identifiers
/// denote relations).
std::string RuleToRel(const Rule& rule);

/// Renders a whole program: facts become relation-constant definitions
/// (`def pred {(...) ; ...}`), rules become `def`s. The aggregate rules of
/// one predicate become a single `def` folding the union of their
/// contribution abstractions, since they fold one bucket per group. The
/// result evaluates on the Rel engine to the same extents as this engine
/// computes. Throws kType for aggregate rules of one predicate that use
/// different operators (this engine refuses those too).
std::string ProgramToRel(const Program& program);

}  // namespace datalog
}  // namespace rel

#endif  // REL_DATALOG_TO_REL_H_
