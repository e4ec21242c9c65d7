#include "ff/node.hpp"

#include "ff/network.hpp"
#include "util/check.hpp"

namespace ff {

bool node::send_out(token t) {
  if (outputs_.empty()) return false;
  switch (policy_) {
    case out_policy::round_robin: {
      channel& c = *outputs_[rr_out_];
      rr_out_ = (rr_out_ + 1) % outputs_.size();
      c.push(std::move(t));
      return true;
    }
    case out_policy::on_demand: {
      // Demand-driven dispatch: deliver to the first successor whose bounded
      // input queue has space. With small capacities this is FastFlow's
      // auto-load-balancing farm schedule.
      std::size_t spins = 0;
      for (;;) {
        for (std::size_t k = 0; k < outputs_.size(); ++k) {
          channel& c = *outputs_[(rr_out_ + k) % outputs_.size()];
          if (!c.full()) {
            rr_out_ = (rr_out_ + k + 1) % outputs_.size();
            c.push(std::move(t));
            return true;
          }
        }
        channel::backoff(spins);
      }
    }
    case out_policy::broadcast: {
      // Tokens are move-only; broadcasting a payload would need a copy.
      // Broadcast is reserved for control tokens (empty / EOS).
      util::expects(!t.has_value(), "broadcast supports control tokens only");
      for (auto* c : outputs_) c->push(t.is_eos() ? token::eos() : token{});
      return true;
    }
  }
  return false;
}

bool node::send_feedback(token t) {
  if (fb_outputs_.empty()) return false;
  channel& c = *fb_outputs_[rr_fb_];
  rr_fb_ = (rr_fb_ + 1) % fb_outputs_.size();
  c.push(std::move(t));
  return true;
}

void node::run_loop() {
  try {
    on_init();

    if (inputs_.empty()) {
      // Pure source: tick until the node declares the stream finished.
      while (svc(token{}) == outcome::more) {
      }
    } else {
      std::size_t open_normal = 0;
      for (auto* c : inputs_)
        if (c->kind() == edge_kind::normal) ++open_normal;
      const bool has_normal = open_normal > 0;

      // A node fed by feedback edges alone has no upstream to wait for.
      bool done = !has_normal && continue_after_eos_ &&
                  on_upstream_eos() == outcome::end;
      std::size_t spins = 0;
      while (!done) {
        bool got = false;
        for (std::size_t k = 0; k < inputs_.size(); ++k) {
          channel& c = *inputs_[(rr_in_ + k) % inputs_.size()];
          auto t = c.try_pop();
          if (!t) continue;
          rr_in_ = (rr_in_ + k + 1) % inputs_.size();
          got = true;
          spins = 0;
          if (t->is_eos()) {
            // EOS on feedback edges is ignored: cycle termination is the
            // receiving node's own decision (outcome::end).
            if (c.kind() == edge_kind::normal && --open_normal == 0) {
              if (continue_after_eos_) {
                if (on_upstream_eos() == outcome::end) done = true;
              } else {
                done = true;
              }
            }
          } else if (svc(std::move(*t)) == outcome::end) {
            done = true;
          }
          break;  // round-robin fairness: at most one token per scan
        }
        if (done) break;
        if (!got) {
          if (!has_normal && inputs_.empty()) break;  // defensive; unreachable
          channel::backoff(spins);
        }
      }
    }

    on_eos();
    for (auto* c : outputs_) c->push(token::eos());
    on_end();
  } catch (...) {
    // Surface the failure to wait() and shut the downstream graph down so
    // sibling threads do not spin forever.
    if (owner_ != nullptr) owner_->record_exception(std::current_exception());
    for (auto* c : outputs_) c->push(token::eos());
  }
}

}  // namespace ff
