// Stochastic Activity Network structure: places, activities, gates.
//
// The formalism follows Meyer/Movaghar/Sanders SANs as implemented by
// UltraSAN:
//   * places hold non-negative token counts (the marking);
//   * timed activities fire after a random delay drawn from a Distribution;
//   * instantaneous activities fire in zero time and have priority over
//     timed ones, selected by weight when several are enabled;
//   * an activity is enabled when every input arc place is non-empty and
//     every attached input gate predicate holds;
//   * firing consumes one token per input arc, runs the input gate
//     functions, picks one case at random (case probabilities), produces
//     one token per output arc of the case and runs its output gates.
//
// Gates carry an explicit sensitivity list (`reads`): the places whose
// marking their predicate inspects. The simulator uses these lists to
// re-evaluate only the activities affected by a firing, which keeps large
// composed models (hundreds of activities) fast. A gate's `fire` function
// may write any place; `reads` covers the predicate only.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "san/distribution.hpp"

namespace sanperf::san {

using PlaceId = std::uint32_t;
using ActivityId = std::uint32_t;
using InputGateId = std::uint32_t;
using OutputGateId = std::uint32_t;

/// Token counts for every place; the state of a SAN.
class Marking {
 public:
  Marking() = default;
  explicit Marking(std::size_t places) : tokens_(places, 0) {}

  [[nodiscard]] std::int32_t get(PlaceId p) const { return tokens_[p]; }
  void set(PlaceId p, std::int32_t v) {
    if (v < 0) throw std::logic_error{"Marking: negative token count"};
    tokens_[p] = v;
  }
  void add(PlaceId p, std::int32_t delta) { set(p, tokens_[p] + delta); }

  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] const std::vector<std::int32_t>& raw() const { return tokens_; }

  friend bool operator==(const Marking&, const Marking&) = default;

 private:
  std::vector<std::int32_t> tokens_;
};

struct InputGate {
  std::string name;
  std::vector<PlaceId> reads;                       ///< places the predicate inspects
  std::function<bool(const Marking&)> enabled;      ///< enabling predicate
  std::function<void(Marking&)> fire;               ///< marking change on firing (may be null)
};

struct OutputGate {
  std::string name;
  std::function<void(Marking&)> fire;               ///< marking change on firing
};

struct Case {
  double probability = 1.0;
  std::vector<PlaceId> output_places;               ///< one token produced in each
  std::vector<OutputGateId> output_gates;
};

struct Activity {
  std::string name;
  bool timed = true;
  Distribution delay = Distribution::deterministic_ms(0);  ///< timed only
  double weight = 1.0;                                     ///< instantaneous selection weight
  std::vector<PlaceId> input_places;                       ///< input arcs (consume 1 each)
  std::vector<InputGateId> input_gates;
  std::vector<Case> cases;                                 ///< at least one after validate()
};

class SanModel;

/// Fluent helper for wiring one activity.
class ActivityRef {
 public:
  ActivityRef(SanModel& model, ActivityId id) : model_{&model}, id_{id} {}

  /// Adds an input arc from `p`.
  ActivityRef& in(PlaceId p);
  /// Attaches an input gate.
  ActivityRef& in_gate(InputGateId g);
  /// Starts a new case with the given probability. Before the first call an
  /// implicit case with probability 1 is in effect.
  ActivityRef& case_prob(double probability);
  /// Adds an output arc on the current case.
  ActivityRef& out(PlaceId p);
  /// Attaches an output gate to the current case.
  ActivityRef& out_gate(OutputGateId g);

  [[nodiscard]] ActivityId id() const { return id_; }

 private:
  SanModel* model_;
  ActivityId id_;
};

class SanModel {
 public:
  // --- construction -------------------------------------------------------
  /// Adds a place with an initial token count. Names must be unique.
  PlaceId place(const std::string& name, std::int32_t initial = 0);

  /// Adds an input gate. `reads` must list every place `enabled` inspects.
  InputGateId input_gate(std::string name, std::vector<PlaceId> reads,
                         std::function<bool(const Marking&)> enabled,
                         std::function<void(Marking&)> fire = nullptr);

  OutputGateId output_gate(std::string name, std::function<void(Marking&)> fire);

  /// Adds a timed activity with the given firing-time distribution.
  ActivityRef timed_activity(const std::string& name, Distribution delay);

  /// Adds an instantaneous activity (fires in zero time, weighted choice).
  ActivityRef instant_activity(const std::string& name, double weight = 1.0);

  // --- lookup --------------------------------------------------------------
  [[nodiscard]] PlaceId find_place(const std::string& name) const;
  [[nodiscard]] ActivityId find_activity(const std::string& name) const;
  [[nodiscard]] bool has_place(const std::string& name) const;

  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] std::size_t activity_count() const { return activities_.size(); }
  [[nodiscard]] const std::string& place_name(PlaceId p) const { return places_[p].name; }
  [[nodiscard]] std::int32_t initial_tokens(PlaceId p) const { return places_[p].initial; }
  void set_initial_tokens(PlaceId p, std::int32_t v);

  [[nodiscard]] const Activity& activity(ActivityId a) const { return activities_[a]; }
  [[nodiscard]] const InputGate& in_gate(InputGateId g) const { return input_gates_[g]; }
  [[nodiscard]] const OutputGate& out_gate(OutputGateId g) const { return output_gates_[g]; }

  /// The marking every simulation run starts from. Cached with the other
  /// lazily built caches, so a simulator reset copies it in place.
  [[nodiscard]] const Marking& initial_marking() const;

  // --- integrity -----------------------------------------------------------
  /// Checks structural invariants (case probabilities sum to 1, every
  /// activity has at least one effect, gate sensitivity lists are in range).
  /// Throws std::logic_error describing the first violation. Memoized: a
  /// repeat call on an unmutated model is O(1).
  void validate() const;

  /// Validates and eagerly builds the derived caches (dependents, input
  /// needs, the initially enabled set). Call this (from one thread) before
  /// sharing the model across concurrent simulators: after prepare(), all
  /// accessors on an unmutated model are read-only and thread-safe.
  void prepare() const;

  // The accessors below read caches built lazily on first use after the
  // last mutation; they are NOT thread-safe while the caches are cold (see
  // prepare()).

  /// Activities whose enabling can change when `p` changes (input arcs and
  /// gate reads), ascending and without duplicates.
  [[nodiscard]] const std::vector<ActivityId>& dependents(PlaceId p) const;

  /// The enabling rule: every input place holds at least its arc
  /// multiplicity and every input gate predicate holds in `m`. The one
  /// definition shared by the simulator and the analytic solver.
  [[nodiscard]] bool enabled(ActivityId a, const Marking& m) const;

  /// Activities enabled in the initial marking, ascending.
  [[nodiscard]] const std::vector<ActivityId>& initially_enabled() const;

 private:
  friend class ActivityRef;

  struct PlaceInfo {
    std::string name;
    std::int32_t initial = 0;
  };

  /// One input-arc requirement: `place` must hold `count` tokens.
  struct InputNeed {
    PlaceId place;
    std::int32_t count;
  };

  /// Marks cached derived state stale after any structural mutation
  /// (including a change of initial tokens).
  void touch() {
    caches_dirty_ = true;
    validated_ = false;
  }

  Activity& mutable_activity(ActivityId a) {
    touch();
    return activities_[a];
  }

  void build_caches() const;

  std::vector<PlaceInfo> places_;
  std::vector<Activity> activities_;
  std::vector<InputGate> input_gates_;
  std::vector<OutputGate> output_gates_;
  // det-lint: allow(unordered-container) name->id lookup only, never iterated
  std::unordered_map<std::string, PlaceId> place_index_;
  // det-lint: allow(unordered-container) name->id lookup only, never iterated
  std::unordered_map<std::string, ActivityId> activity_index_;

  mutable bool caches_dirty_ = true;
  mutable bool validated_ = false;
  mutable std::vector<std::vector<ActivityId>> dependents_;
  /// Input needs of activity a: needs_[needs_begin_[a] .. needs_begin_[a+1]),
  /// one entry per distinct input place.
  mutable std::vector<InputNeed> needs_;
  mutable std::vector<std::uint32_t> needs_begin_;
  mutable std::vector<ActivityId> initially_enabled_;
  mutable Marking initial_;
};

}  // namespace sanperf::san
