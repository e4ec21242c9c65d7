// Tests for the distributed runtime: serialisation round-trips, the network
// fabric (ordering, close semantics, latency), end-to-end equivalence of
// the distributed backend with the shared-memory one, and the elastic
// scheduler under stragglers, message loss and host death.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "dist/dist.hpp"
#include "models/models.hpp"
#include "util/stopwatch.hpp"

namespace {

TEST(Serialize, PodRoundTrip) {
  dist::archive_writer w;
  w.put<std::uint64_t>(42);
  w.put<double>(3.5);
  w.put<std::int32_t>(-7);
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringAndVectorRoundTrip) {
  dist::archive_writer w;
  w.put_string("hello cwc");
  w.put_vector<double>({1.0, 2.0, 3.0});
  w.put_string("");
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  EXPECT_EQ(r.get_string(), "hello cwc");
  EXPECT_EQ(r.get_vector<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, UnderflowThrows) {
  dist::archive_writer w;
  w.put<std::uint32_t>(1);
  const auto bytes = w.take();
  dist::archive_reader r(bytes);
  EXPECT_THROW(r.get<std::uint64_t>(), std::runtime_error);
}

class wire_param_test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(wire_param_test, SampleBatchRoundTrip) {
  const std::size_t n = GetParam();
  cwcsim::sample_batch b;
  b.trajectory_id = 77;
  for (std::size_t i = 0; i < n; ++i) {
    cwc::trajectory_sample s;
    s.time = 0.5 * static_cast<double>(i);
    s.values = {static_cast<double>(i), 2.0 * static_cast<double>(i), -1.0};
    b.samples.push_back(std::move(s));
  }
  const auto bytes = dist::encode_sample_batch(b);
  const auto back = dist::decode_sample_batch(bytes);
  EXPECT_EQ(back.trajectory_id, 77u);
  ASSERT_EQ(back.samples.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(back.samples[i].time, b.samples[i].time);
    EXPECT_EQ(back.samples[i].values, b.samples[i].values);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, wire_param_test,
                         ::testing::Values(0u, 1u, 7u, 100u));

TEST(Wire, TaskDoneRoundTrip) {
  cwcsim::task_done d;
  d.trajectory_id = 9;
  d.quanta = 12;
  d.steps = 34567;
  const auto back = dist::decode_task_done(dist::encode_task_done(d));
  EXPECT_EQ(back.trajectory_id, 9u);
  EXPECT_EQ(back.quanta, 12u);
  EXPECT_EQ(back.steps, 34567u);
}

TEST(NetChannel, DeliversInOrderPerWriter) {
  dist::net_channel ch;
  ch.add_writer();
  for (int i = 0; i < 100; ++i) {
    dist::archive_writer w;
    w.put<int>(i);
    ch.send(w.take());
  }
  ch.close_writer();
  for (int i = 0; i < 100; ++i) {
    auto m = ch.recv();
    ASSERT_TRUE(m.has_value());
    dist::archive_reader r(*m);
    EXPECT_EQ(r.get<int>(), i);
  }
  EXPECT_FALSE(ch.recv().has_value());
  EXPECT_EQ(ch.messages_sent(), 100u);
}

TEST(NetChannel, RecvUnblocksOnClose) {
  dist::net_channel ch;
  ch.add_writer();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close_writer();
  });
  EXPECT_FALSE(ch.recv().has_value());
  closer.join();
}

TEST(NetChannel, LatencyDelaysDelivery) {
  dist::net_params p;
  p.latency_s = 0.05;
  dist::net_channel ch(p);
  ch.add_writer();
  util::stopwatch sw;
  ch.send({std::byte{1}});
  auto m = ch.recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(sw.elapsed_s(), 0.045);
  ch.close_writer();
}

TEST(NetChannel, MultipleWritersAllDrained) {
  dist::net_channel ch;
  constexpr int kWriters = 4, kEach = 50;
  std::vector<std::thread> ts;
  for (int w = 0; w < kWriters; ++w) ch.add_writer();
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&ch, w] {
      for (int i = 0; i < kEach; ++i) {
        dist::archive_writer aw;
        aw.put<int>(w * 1000 + i);
        ch.send(aw.take());
      }
      ch.close_writer();
    });
  }
  int got = 0;
  while (ch.recv().has_value()) ++got;
  for (auto& t : ts) t.join();
  EXPECT_EQ(got, kWriters * kEach);
}

/// Drive the cluster driver directly, outside a session: the dist_config
/// knobs the cwcsim::distributed descriptor does not carry (host_speed,
/// kills, the elastic timeouts) need it.
cwcsim::run_report run_cluster(const cwcsim::model_ref& model,
                               dist::dist_config dc) {
  cwcsim::collecting_sink sink;
  cwcsim::run_report report;
  dist::cluster_driver(model, std::move(dc)).run(sink, report);
  report.result.windows = sink.take_windows();
  return report;
}

cwcsim::model_ref flat(const cwc::reaction_network& net) {
  return cwcsim::model_ref{nullptr, &net, nullptr};
}

TEST(DistributedSimulator, MatchesMulticoreExactly) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 18;
  cfg.t_end = 12.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 2;
  cfg.window_size = 5;
  cfg.window_slide = 5;

  const auto mc = cwcsim::run(m, cfg).result;

  cwcsim::distributed cluster{3, 2};
  cluster.network.latency_s = 1e-4;
  cluster.network.bytes_per_s = 50e6;
  const auto dr = cwcsim::run(m, cfg, cluster);

  ASSERT_EQ(dr.result.windows.size(), mc.windows.size());
  for (std::size_t i = 0; i < mc.windows.size(); ++i) {
    ASSERT_EQ(dr.result.windows[i].first_sample, mc.windows[i].first_sample);
    for (std::size_t c = 0; c < mc.windows[i].cuts.size(); ++c) {
      const auto& a = mc.windows[i].cuts[c];
      const auto& b = dr.result.windows[i].cuts[c];
      for (std::size_t d = 0; d < a.moments.size(); ++d) {
        ASSERT_DOUBLE_EQ(a.moments[d].mean(), b.moments[d].mean());
        ASSERT_DOUBLE_EQ(a.moments[d].variance(), b.moments[d].variance());
      }
    }
  }
  EXPECT_EQ(dr.result.completions.size(), cfg.num_trajectories);
  ASSERT_TRUE(dr.network.has_value());
  EXPECT_GT(dr.network->messages, 0u);
  EXPECT_GT(dr.network->bytes, 0.0);
}

TEST(DistributedSimulator, SingleHostDegenerateCase) {
  const auto net = models::make_birth_death({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 4;
  cfg.t_end = 5.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;
  cfg.kmeans_k = 0;

  const auto dr = cwcsim::run(net, cfg, cwcsim::distributed{1, 2});
  EXPECT_EQ(dr.result.all_cuts().size(), cfg.num_samples());
}

TEST(DistributedSimulator, RejectsMoreHostsThanTrajectories) {
  const auto net = models::make_birth_death({});
  dist::dist_config dc;
  dc.base.num_trajectories = 2;
  dc.num_hosts = 5;
  EXPECT_THROW(dist::cluster_driver(flat(net), dc), util::precondition_error);
}

// ------------------- elastic scheduling & fault injection -----------------

cwcsim::sim_config fault_base_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 6.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 1.5;
  cfg.kmeans_k = 0;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  return cfg;
}

void expect_windows_bit_exact(const std::vector<cwcsim::window_summary>& a,
                              const std::vector<cwcsim::window_summary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first_sample, b[i].first_sample);
    ASSERT_EQ(a[i].cuts.size(), b[i].cuts.size());
    for (std::size_t c = 0; c < a[i].cuts.size(); ++c) {
      const auto& x = a[i].cuts[c];
      const auto& y = b[i].cuts[c];
      ASSERT_EQ(x.moments.size(), y.moments.size());
      for (std::size_t d = 0; d < x.moments.size(); ++d) {
        ASSERT_DOUBLE_EQ(x.moments[d].mean(), y.moments[d].mean());
        ASSERT_DOUBLE_EQ(x.moments[d].variance(), y.moments[d].variance());
      }
    }
  }
}

TEST(DistributedElastic, StaticPartitionMatchesElasticExactly) {
  const auto net = models::make_birth_death({});
  const auto cfg = fault_base_config();

  cwcsim::distributed elastic{4, 1};
  elastic.network.latency_s = 1e-4;

  cwcsim::distributed fixed = elastic;
  fixed.static_partition = true;

  const auto er = cwcsim::run(net, cfg, elastic);
  const auto sr = cwcsim::run(net, cfg, fixed);
  expect_windows_bit_exact(er.result.windows, sr.result.windows);

  // Elastic honesty counters: one grant per trajectory in a healthy run
  // is the floor (duplicate requests may add more), and every accepted
  // quantum is attributed to exactly one host.
  EXPECT_GE(er.network->grants, cfg.num_trajectories);
  std::uint64_t quanta = 0;
  for (const auto& d : er.result.completions) quanta += d.quanta;
  std::uint64_t accepted = 0;
  ASSERT_EQ(er.network->host_quanta.size(), elastic.num_hosts);
  for (const auto q : er.network->host_quanta) accepted += q;
  EXPECT_EQ(accepted, quanta);
  // The static path reports no elastic counters.
  EXPECT_EQ(sr.network->grants, 0u);
  EXPECT_TRUE(sr.network->host_quanta.empty());
}

/// Kill 1 of 4 hosts at {25, 50, 75}% of one trajectory's simulated time,
/// under drop_prob in {0, 0.05}: the elastic scheduler must finish with
/// results bit-identical to the no-fault run and exactly-once completion
/// accounting.
///
/// The kill point lies inside host 1's FIRST lease: a grant runs its
/// trajectory from t = 0 (replaying acked quanta), so host 1 dies during
/// whatever trajectory it is handed first. The surviving hosts run at
/// 1/kSurvivorSlowdown speed, so they cannot drain the work queue before
/// host 1 asks for its first grant — the pull scheduler cannot starve the
/// host that must die.
class fault_matrix
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(fault_matrix, SurvivesHostDeathBitExactly) {
  const auto [progress_frac, drop_prob] = GetParam();
  const auto net = models::make_birth_death({});
  const auto cfg = fault_base_config();

  dist::dist_config dc;
  dc.base = cfg;
  dc.num_hosts = 4;
  dc.workers_per_host = 1;
  dc.network.latency_s = 1e-4;
  dc.reissue_after_s = 0.05;  // fast failure detection keeps the test quick
  dc.master_tick_s = 0.01;
  dc.worker_retry_s = 0.02;

  // Reference: the same elastic deployment with no faults at all.
  const auto reference = run_cluster(flat(net), dc);

  constexpr double kSurvivorSlowdown = 500.0;
  dc.network.drop_prob = drop_prob;
  dc.host_speed.assign(dc.num_hosts, 1.0 / kSurvivorSlowdown);
  dc.host_speed[1] = 1.0;
  dc.kills.push_back(dist::kill_spec{1, progress_frac * cfg.t_end});
  const auto dr = run_cluster(flat(net), dc);

  // Bit-exact results despite the death (and the message loss).
  expect_windows_bit_exact(reference.result.windows, dr.result.windows);

  // Exactly-once completion accounting: every trajectory reported once.
  ASSERT_EQ(dr.result.completions.size(), cfg.num_trajectories);
  std::vector<int> seen(cfg.num_trajectories, 0);
  for (const auto& d : dr.result.completions) {
    ASSERT_LT(d.trajectory_id, cfg.num_trajectories);
    ++seen[static_cast<std::size_t>(d.trajectory_id)];
  }
  for (const auto s : seen) EXPECT_EQ(s, 1);

  // No double-counting: accepted quanta match the completions' totals.
  std::uint64_t quanta = 0;
  for (const auto& d : dr.result.completions) quanta += d.quanta;
  std::uint64_t accepted = 0;
  for (const auto q : dr.network->host_quanta) accepted += q;
  EXPECT_EQ(accepted, quanta);

  // The dead host's in-flight work was re-issued, and the master saw it.
  EXPECT_GE(dr.network->reissued, 1u);
  EXPECT_GE(dr.network->grants, cfg.num_trajectories + dr.network->reissued);
}

INSTANTIATE_TEST_SUITE_P(
    KillTimesAndLoss, fault_matrix,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(0.0, 0.05)));

TEST(DistributedFaults, AllHostsDeadFailsCleanly) {
  const auto net = models::make_birth_death({});
  dist::dist_config dc;
  dc.base = fault_base_config();
  dc.num_hosts = 2;
  dc.workers_per_host = 1;
  dc.reissue_after_s = 0.05;
  dc.master_tick_s = 0.01;
  // Both hosts die almost immediately.
  dc.kills = {dist::kill_spec{0, 1.0}, dist::kill_spec{1, 1.0}};
  EXPECT_THROW(run_cluster(flat(net), dc), std::runtime_error);
}

TEST(DistributedFaults, StaticSchedulingRejectsKills) {
  const auto net = models::make_birth_death({});
  dist::dist_config dc;
  dc.base = fault_base_config();
  dc.scheduling = dist::schedule_mode::static_block;
  dc.kills.push_back(dist::kill_spec{0, 1.0});
  EXPECT_THROW(dist::cluster_driver(flat(net), dc), util::precondition_error);
}

/// Regression for the deadlock bug: a host whose engine throws used to
/// leave the master blocked in recv() forever (the dying worker never
/// called close_writer()). With writer_guard + error capture the run must
/// surface the worker's exception — under BOTH scheduling modes.
class throwing_host_test
    : public ::testing::TestWithParam<dist::schedule_mode> {};

TEST_P(throwing_host_test, YieldsErrorNotHang) {
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  net.set_initial(a, 100);
  net.add_reaction("boom", {{a, 1}}, {},
                   cwc::rate_law::custom([](const cwc::rate_ctx&) -> double {
                     throw std::runtime_error("engine blew up");
                   }));

  dist::dist_config dc;
  dc.base = fault_base_config();
  dc.num_hosts = 2;
  dc.workers_per_host = 2;
  dc.scheduling = GetParam();
  dc.master_tick_s = 0.01;
  // Finishes, never hangs.
  EXPECT_THROW(run_cluster(flat(net), dc), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(BothModes, throwing_host_test,
                         ::testing::Values(dist::schedule_mode::elastic,
                                           dist::schedule_mode::static_block));

}  // namespace
