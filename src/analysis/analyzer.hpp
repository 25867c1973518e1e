// Static analysis of xMAS networks — the lint layer in front of the
// verification pipeline.
//
// `analyze` checks a network *before* any encoding and returns structured
// diagnostics instead of letting a miswired or semantically ill-formed net
// reach the solver (where it would produce a confusing verdict, or worse,
// undefined behaviour when a routing function indexes a port that does not
// exist). Rules, by id:
//
//   port-connectivity   (error)   every in/out-port wired exactly once;
//                                 channel endpoints resolve to primitives
//   duplicate-name      (error)   primitive names are unique
//   parameters          (error)   kind-specific parameters present and sane
//                                 (queue capacity, source colors, function
//                                 mapping, switch routing, automaton shape)
//   combinational-cycle (error)   no cycle through combinational primitives
//                                 only (function/fork/join/switch/merge) —
//                                 the synchronous transfer relation of such
//                                 a net has no least fixed point, so the
//                                 xMAS semantics the paper builds on is
//                                 undefined for it
//   type-consistency    (error)   every result xmas::Typing::derive left
//                                 out: a switch route or emission port
//                                 outside the out-ports, a source color,
//                                 function image or emitted color outside
//                                 the color table
//   dead-channel        (warning) T(c) = ∅: no packet can ever appear
//   unreachable-sink    (warning) a typed channel whose packets can never
//                                 reach a consumer (sink, join token port,
//                                 or automaton)
//
// Diagnostics come in a fixed order: the structural rules by primitive
// then by channel, combinational cycles, type-consistency by primitive
// then message, then the warnings by channel. Errors reject the network
// (core::Verifier throws std::invalid_argument carrying them); warnings
// are surfaced through VerifyResult.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "xmas/network.hpp"
#include "xmas/typing.hpp"

namespace advocat::analysis {

enum class Severity { Warning, Error };

[[nodiscard]] const char* to_string(Severity severity);

/// One analyzer finding. `component` names the primitive and `channel` the
/// channel the finding anchors to; either may be empty when the rule has no
/// such anchor.
struct Diagnostic {
  Severity severity = Severity::Error;
  std::string rule;       ///< stable rule id, e.g. "port-connectivity"
  std::string component;  ///< primitive name, empty when not applicable
  std::string channel;    ///< channel display name, empty when not applicable
  std::string message;

  /// Rendering like "error[type-consistency] sw: route(req) = 7 ...".
  [[nodiscard]] std::string to_string() const;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  /// Channels with an empty derived color set, ascending. Only populated
  /// when the network has no errors (the sets are meaningless otherwise).
  std::vector<xmas::ChanId> dead_channels;
  /// The T-derivation, run once the structural and combinational-cycle
  /// rules pass; a network without errors always has one (core::Verifier
  /// encodes with it).
  std::optional<xmas::Typing> typing;
  /// Wall clock of that derivation, in seconds.
  double typing_seconds = 0.0;

  [[nodiscard]] bool has_errors() const;
  [[nodiscard]] std::size_t num_errors() const;
  [[nodiscard]] std::size_t num_warnings() const;
  /// One diagnostic per line, errors first.
  [[nodiscard]] std::string to_string() const;
};

/// Runs every rule. Structural errors (connectivity, parameters) suppress
/// the semantic passes, which need a fully wired net to make sense.
[[nodiscard]] AnalysisResult analyze(const xmas::Network& net);

}  // namespace advocat::analysis
