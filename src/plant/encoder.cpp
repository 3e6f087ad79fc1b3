#include "plant/encoder.hpp"

#include <cstdlib>

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
  qdec_.set_read_hook(nullptr);
  if (index_wakeup_ != 0) world_.queue().cancel(index_wakeup_);
  motor_.set_commit_grid(0);
}

void IncrementalEncoder::start() {
  if (running_) return;
  running_ = true;
  qdec_.set_read_hook([this] { return counts(); });
  const periph::QuadDecConfig& config = qdec_.config();
  if (config.index_vector >= 0 || config.clear_on_index) {
    // The index pulse acts at its poll instant, so each poll gets a
    // wake-up that looks for a revolution crossing, and the plant commits
    // there so that each wake-up is one poll-length step.
    motor_.set_commit_grid(kPollInterval);
    index_wakeup_ = world_.queue().schedule_every(
        kPollInterval - world_.now() % kPollInterval, kPollInterval,
        [this] { poll_index(); });
  }
}

void IncrementalEncoder::flush() { draw_slips(world_.now()); }

std::int64_t IncrementalEncoder::counts() {
  const sim::SimTime now = world_.now();
  draw_slips(now - 1);
  const double angle = motor_.angle_at(now);
  const std::int64_t input =
      periph::angle_to_extended_counts(angle,
                                       static_cast<double>(counts_per_rev())) +
      slips_;
  // A decoder that does not act on the index pulse counts the revolutions
  // (the count at one per revolution) crossed since its last read here.
  const std::int64_t rev = periph::angle_to_extended_counts(angle, 1.0);
  if (index_wakeup_ == 0 && rev != last_index_rev_) {
    qdec_.count_index(std::abs(rev - last_index_rev_), input);
    last_index_rev_ = rev;
  }
  return input;
}

void IncrementalEncoder::draw_slips(sim::SimTime through) {
  if (!fault_hook_) return;
  for (; next_draw_ <= through; next_draw_ += kPollInterval) {
    slips_ += fault_hook_();
  }
}

void IncrementalEncoder::poll_index() {
  const std::int64_t rev =
      periph::angle_to_extended_counts(motor_.angle_at(world_.now()), 1.0);
  if (rev != last_index_rev_) {
    last_index_rev_ = rev;
    qdec_.index_pulse();
  }
}

}  // namespace iecd::plant
