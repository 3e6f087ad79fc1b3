#include "plant/encoder.hpp"

#include <numbers>

namespace iecd::plant {

IncrementalEncoder::IncrementalEncoder(sim::World& world, DcMotorSim& motor,
                                       periph::QuadDecPeripheral& qdec,
                                       EncoderParams params, std::string name)
    : world_(world),
      motor_(motor),
      qdec_(qdec),
      params_(params),
      name_(std::move(name)) {}

IncrementalEncoder::~IncrementalEncoder() {
  if (!running_) return;
  motor_.set_sampler(nullptr);
  qdec_.set_read_hook(nullptr);
  if (index_wakeup_ != 0) world_.queue().cancel(index_wakeup_);
}

void IncrementalEncoder::start() {
  if (running_) return;
  running_ = true;
  motor_.set_sampler([this](double angle) { sample(angle); });
  qdec_.set_read_hook([this] { motor_.poll_until(world_.now()); });
  if (qdec_.config().index_vector >= 0) {
    // The index IRQ must be raised at its poll instant, so each poll gets
    // a wake-up that samples through it.
    index_wakeup_ = world_.queue().schedule_every(
        kPollInterval - world_.now() % kPollInterval, kPollInterval,
        [this] { flush(); });
  }
}

void IncrementalEncoder::flush() { motor_.poll_until(world_.now() + 1); }

void IncrementalEncoder::sample(double angle) {
  const double cpr = static_cast<double>(counts_per_rev());
  const auto counts = static_cast<std::int64_t>(
      std::floor(angle / (2.0 * std::numbers::pi) * cpr));
  const std::int64_t delta = counts - last_counts_;
  if (fault_hook_) {
    const std::int32_t emit = fault_hook_(static_cast<std::int32_t>(delta));
    if (emit != 0) qdec_.add_counts(emit);
    last_counts_ = counts;
  } else if (delta != 0) {
    qdec_.add_counts(static_cast<std::int32_t>(delta));
    last_counts_ = counts;
  }
  // Index pulse once per full revolution crossing.
  const auto rev = static_cast<std::int64_t>(
      std::floor(angle / (2.0 * std::numbers::pi)));
  if (rev != last_index_rev_) {
    qdec_.index_pulse();
    last_index_rev_ = rev;
  }
}

}  // namespace iecd::plant
