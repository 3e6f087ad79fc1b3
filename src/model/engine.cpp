#include "model/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

// No subsystem header here: the engine finds interiors through
// Block::spliced_interior().  With the Subsystem overrides of update() in
// view, GCC stops speculating that a block's update() is Block's no-op and
// calls every one, which cost ~10 % on a flat 64-block chain.
#include "trace/trace.hpp"

namespace iecd::model {

namespace {

// Classic RK4 over the engine's state vector.  The stage candidate is
// out = y + a k (a = 0.5 h or h) and the combination y += h / 6 (k1 + 2 k2
// + 2 k3 + k4), the expressions every RK4 golden was pinned with.
void rk4_stage(const std::vector<double>& y, const std::vector<double>& k,
               double a, std::vector<double>& out) {
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = y[i] + a * k[i];
}

void rk4_combine(std::vector<double>& y, double h,
                 const std::vector<double>& k1, const std::vector<double>& k2,
                 const std::vector<double>& k3,
                 const std::vector<double>& k4) {
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

/// gcd of every explicit discrete period and offset in \p model and the
/// interiors spliced into it.
void gcd_of_rates(const Model& model, std::int64_t& gcd_ns) {
  for (const auto& b : model.blocks()) {
    const SampleTime st = b->sample_time();
    if (st.kind == SampleTime::Kind::kDiscrete) {
      if (!(st.period > 0)) {
        throw std::logic_error(b->name() + ": discrete period must be > 0");
      }
      gcd_ns = std::gcd(gcd_ns, to_ns(st.period));
      if (st.offset > 0) gcd_ns = std::gcd(gcd_ns, to_ns(st.offset));
    }
    if (const Model* inner = b->spliced_interior()) {
      gcd_of_rates(*inner, gcd_ns);
    }
  }
}

}  // namespace

Engine::Engine(Model& model, EngineOptions options)
    : model_(model), options_(options) {
  if (options_.minor_steps < 1) {
    throw std::invalid_argument("Engine: minor_steps >= 1");
  }
  if (std::isnan(options_.stop_time)) {
    throw std::invalid_argument("Engine: stop_time is NaN");
  }
  if (!std::isfinite(options_.base_period) || options_.base_period < 0) {
    throw std::invalid_argument(
        "Engine: base_period finite and >= 0 (0 derives it)");
  }
}

void Engine::resolve_sample_times() {
  // Base period: gcd of the explicit discrete rates anywhere in the flat
  // program, else the option, else 1 ms.
  std::int64_t gcd_ns = 0;
  gcd_of_rates(model_, gcd_ns);
  if (options_.base_period > 0) {
    const std::int64_t opt_ns = to_ns(options_.base_period);
    if (gcd_ns != 0 && gcd_ns % opt_ns != 0 && opt_ns % gcd_ns != 0) {
      throw std::logic_error(
          "Engine: base_period incompatible with block rates");
    }
    gcd_ns = gcd_ns == 0 ? opt_ns : std::gcd(gcd_ns, opt_ns);
  }
  if (gcd_ns == 0) gcd_ns = to_ns(1e-3);
  base_period_ns_ = gcd_ns;
  base_period_ = static_cast<double>(gcd_ns) * 1e-9;

  // Inheritance propagation in sorted order: a block with an inherited rate
  // becomes continuous if any of its drivers is continuous, otherwise it
  // runs at the base rate.  Subsystem::initialize() hands the result on to
  // each interior.
  for (Block* b : model_.sorted()) {
    const SampleTime st = b->sample_time();
    switch (st.kind) {
      case SampleTime::Kind::kContinuous:
        b->set_resolved_continuous(true);
        b->set_resolved_period(base_period_);
        break;
      case SampleTime::Kind::kDiscrete:
        b->set_resolved_continuous(false);
        b->set_resolved_period(st.period);
        break;
      case SampleTime::Kind::kInherited: {
        bool continuous = false;
        double period = base_period_;
        for (int i = 0; i < b->input_count(); ++i) {
          if (!b->input_connected(i)) continue;
          const Block* src = b->input(i).src;
          if (src->resolved_continuous()) continuous = true;
        }
        b->set_resolved_continuous(continuous);
        b->set_resolved_period(period);
        break;
      }
    }
  }
}

void Engine::initialize() {
  resolve_sample_times();
  SimContext ctx{0.0, base_period_, false};
  for (Block* b : model_.sorted()) b->initialize(ctx);
  build_program();
  major_index_ = 0;
  initialized_ = true;
}

void Engine::build_program() {
  exec_.clear();
  hoisted_.clear();
  stages_.clear();
  layout_.clear();
  epochs_.clear();
  splice(model_, 0);
  build_stage_program();

  const std::size_t total =
      layout_.empty() ? 0 : layout_.back().offset + layout_.back().count;
  for (auto* v : {&states_, &k1_, &k2_, &k3_, &k4_, &scratch_}) {
    v->assign(total, 0.0);
  }
  // The blocks hold the current states: the initial ones after
  // initialize(), the integrated ones after every step.
  for (const StateSlice& s : layout_) {
    s.block->read_states(std::span<double>(states_).subspan(s.offset, s.count));
  }
}

void Engine::splice(const Model& model, std::uint64_t parent_offset_ticks) {
  // A model is recorded before its interiors, so program_stale() meets a
  // removed subsystem's edited parent before the removed model itself.
  epochs_.emplace_back(&model, model.order_epoch());
  for (Block* b : model.sorted()) {
    ExecEntry e{b, 0, 0};
    if (!b->resolved_continuous()) {
      // A block whose rate was never resolved (added mid-run) runs at the
      // base rate.  Inherited rates carry the enclosing subsystem's offset.
      const std::int64_t p_ns = to_ns(b->resolved_period());
      e.period_ticks =
          p_ns > 0 ? std::max<std::uint64_t>(
                         1, static_cast<std::uint64_t>(p_ns / base_period_ns_))
                   : 1;
      if (b->sample_time().kind == SampleTime::Kind::kDiscrete) {
        const std::int64_t o_ns = to_ns(b->sample_time().offset);
        e.offset_ticks =
            o_ns > 0 ? static_cast<std::uint64_t>(o_ns / base_period_ns_) : 0;
      } else {
        e.offset_ticks = parent_offset_ticks;
      }
    }
    if (const Model* inner = b->spliced_interior()) {
      splice(*inner, e.offset_ticks);
      continue;
    }
    exec_.push_back(e);
    const auto n = static_cast<std::size_t>(b->continuous_state_count());
    if (b->resolved_continuous() || n > 0) stages_.push_back(b);
    if (n) {
      const std::size_t offset =
          layout_.empty() ? 0 : layout_.back().offset + layout_.back().count;
      layout_.push_back({b, offset, n});
    }
  }
}

void Engine::build_stage_program() {
  // splice() left every continuous or state-holding block in stages_.
  const std::unordered_set<const Block*> candidates(stages_.begin(),
                                                    stages_.end());
  // The derivative cone: the state holders, then every candidate whose
  // output reaches a cone block's inputs.  Other sources are held across
  // the stages, because only the major pass runs them.
  std::unordered_set<const Block*> cone;
  std::vector<const Block*> todo, sources;
  for (const StateSlice& s : layout_) todo.push_back(s.block);
  while (!todo.empty()) {
    const Block* b = todo.back();
    todo.pop_back();
    if (!cone.insert(b).second) continue;
    sources.clear();
    b->append_sources(sources);
    for (const Block* src : sources) {
      if (candidates.count(src)) todo.push_back(src);
    }
  }
  // State holders keep their per-stage output() even where no stage reads
  // it: callers read a holder's outputs right after step() (run_pil's
  // sensor reads the motor angle after advance_to()).
  //
  // Hoisting in program order: a source counts as held if it is no
  // candidate or was already found step-invariant.
  std::unordered_set<const Block*> invariant;
  const auto held = [&](const Block* b) {
    sources.clear();
    b->append_sources(sources);
    return std::none_of(sources.begin(), sources.end(), [&](const Block* s) {
      return candidates.count(s) && !invariant.count(s);
    });
  };
  std::vector<Block*> stages;
  for (Block* b : stages_) {
    if (!cone.count(b)) continue;
    if (b->continuous_state_count() == 0 && b->output_is_pure() && held(b)) {
      invariant.insert(b);
      hoisted_.push_back(b);
    } else {
      stages.push_back(b);
    }
  }
  stages_ = std::move(stages);
  // The exact path: every block left is a state holder with an exact step
  // whose sources are all held (a holder can precede its hoisted sources
  // in program order, so this waits for the whole hoisting pass).
  exact_ = std::all_of(stages_.begin(), stages_.end(), [&](const Block* b) {
    return b->continuous_state_count() > 0 && b->has_exact_step() && held(b);
  });
}

bool Engine::program_stale() const {
  for (const auto& [model, epoch] : epochs_) {
    if (model->order_epoch() != epoch) return true;
  }
  return false;
}

double Engine::time() const {
  return static_cast<double>(major_index_) *
         static_cast<double>(base_period_ns_) * 1e-9;
}

void Engine::eval_derivatives(double t, std::vector<double>& candidate,
                              std::vector<double>& dx) {
  SimContext ctx{t, base_period_, true};
  for (const StateSlice& s : layout_) {
    s.block->write_states(
        std::span<const double>(candidate).subspan(s.offset, s.count));
  }
  for (Block* b : stages_) b->output(ctx);
  for (const StateSlice& s : layout_) {
    s.block->derivatives(ctx, std::span<double>(dx).subspan(s.offset, s.count));
  }
}

void Engine::integrate(double t0) {
  if (states_.empty()) return;
  // The step-invariant blocks read only values held across the stages, so
  // one evaluation with stage 1's context serves every stage.
  const SimContext ctx{t0, base_period_, true};
  for (Block* b : hoisted_) b->output(ctx);
  if (exact_) {
    // The holders keep their own states; states_ is read again whenever
    // the program is rebuilt.
    for (Block* b : stages_) b->step_exact(ctx, base_period_);
    return;
  }
  const double h =
      base_period_ / static_cast<double>(options_.minor_steps);
  for (int m = 0; m < options_.minor_steps; ++m) {
    const double t = t0 + h * m;
    eval_derivatives(t, states_, k1_);
    rk4_stage(states_, k1_, 0.5 * h, scratch_);
    eval_derivatives(t + 0.5 * h, scratch_, k2_);
    rk4_stage(states_, k2_, 0.5 * h, scratch_);
    eval_derivatives(t + 0.5 * h, scratch_, k3_);
    rk4_stage(states_, k3_, h, scratch_);
    eval_derivatives(t + h, scratch_, k4_);
    rk4_combine(states_, h, k1_, k2_, k3_, k4_);
  }
  // Leave the blocks holding the integrated states.
  for (const StateSlice& s : layout_) {
    s.block->write_states(
        std::span<const double>(states_).subspan(s.offset, s.count));
  }
}

bool Engine::step() {
  if (!initialized_) initialize();
  // A graph edited mid-run (rare) recompiles the program.
  if (program_stale()) build_program();
  const double t = time();
  if (t >= options_.stop_time - 1e-12) return false;
  const std::uint64_t major = major_index_;
  SimContext ctx{t, base_period_, false};
  for (const ExecEntry& e : exec_) {
    if (due(e, major)) e.block->output(ctx);
  }
  for (const ExecEntry& e : exec_) {
    if (due(e, major)) e.block->update(ctx);
  }
  integrate(t);
  if (auto* tr = trace::recorder()) {
    const auto begin =
        static_cast<std::int64_t>(major_index_) * base_period_ns_;
    tr->span_complete("model", "major_step", model_.name(), begin,
                      begin + base_period_ns_,
                      static_cast<double>(major_index_));
  }
  ++major_index_;
  return true;
}

void Engine::run() {
  if (std::isinf(options_.stop_time)) {
    throw std::logic_error("Engine: run() needs a finite stop_time");
  }
  while (step()) {
  }
}

void Engine::advance_to(double t) {
  if (!initialized_) initialize();
  while (time() + 1e-12 < t && step()) {
  }
}

}  // namespace iecd::model
