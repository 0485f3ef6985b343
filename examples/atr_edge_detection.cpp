// ATR (automated target recognition) demo: real image processing, end to
// end. Generates synthetic 400x250 reconnaissance scenes, ships them as
// binary PPM over the ORB to an image-processing servant, runs the real
// Kirsch / Prewitt / Sobel edge detectors on the pixels, and writes the
// edge maps next to the binary (atr_*.pgm). Also shows a CPU reserve
// protecting the processing pipeline from a competing load, with timing
// from the simulated resource kernel.
#include <array>
#include <iostream>
#include <memory>

#include "common/stats.hpp"
#include "core/cpu_reservation_manager.hpp"
#include "core/testbed.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/ppm.hpp"
#include "imgproc/synth.hpp"
#include "orb/orb.hpp"
#include "os/load_generator.hpp"

int main() {
  using namespace aqm;

  // --- real pixel processing first -----------------------------------------------
  std::cout << "generating a 400x250 synthetic reconnaissance scene...\n";
  const img::RgbImage scene = img::make_paper_scene(2026);
  img::write_ppm_file("atr_scene.ppm", scene);
  const img::GrayImage gray = scene.to_gray();

  constexpr std::array<img::EdgeAlgorithm, 3> algorithms = {
      img::EdgeAlgorithm::Kirsch, img::EdgeAlgorithm::Prewitt, img::EdgeAlgorithm::Sobel};
  for (const auto a : algorithms) {
    const img::GrayImage edges = img::run_edge(a, gray);
    const img::GrayImage binary = img::threshold(edges, 96);
    int pixels_on = 0;
    for (const auto v : binary.data()) pixels_on += v > 0 ? 1 : 0;
    const std::string path = std::string("atr_") + img::to_string(a) + ".pgm";
    img::write_pgm_file(path, edges);
    std::cout << "  " << img::to_string(a) << ": " << pixels_on
              << " edge pixels above threshold -> " << path << "\n";
  }

  // --- then the middleware + resource-kernel side ---------------------------------
  std::cout << "\nsimulated client -> ATR server run (20 images, with competing "
               "CPU load, then with a reserve):\n";
  for (const bool with_reserve : {false, true}) {
    core::AtrTestbedParams params;
    params.server_cpu.reserve_utilization_cap = 0.95;
    core::AtrTestbed bed(params);

    orb::Poa& mgmt = bed.server_orb.create_poa("mgmt");
    core::CpuReservationManagerServer manager(mgmt, bed.server_cpu);
    core::CpuReservationClient reserve_client(bed.client_orb, manager.ref());
    os::ReserveId reserve = os::kNoReserve;
    if (with_reserve) {
      reserve_client.create_reserve({microseconds(47'500), milliseconds(50), true},
                                    [&](Result<os::ReserveId> r) {
                                      if (r.ok()) reserve = r.value();
                                    });
      bed.engine.run_until(bed.engine.now() + seconds(1));
    }

    os::LoadGenerator::Config load_cfg;
    load_cfg.priority = 100;
    load_cfg.burst_mean = milliseconds(20);
    load_cfg.interval_mean = milliseconds(50);
    os::LoadGenerator load(bed.engine, bed.server_cpu, load_cfg, /*seed=*/1);
    load.start();

    RunningStats per_image_ms;
    orb::Poa& atr_poa = bed.server_orb.create_poa("atr");
    int remaining = 20;
    std::function<void()> send_next;
    auto servant = std::make_shared<orb::FunctionServant>(
        milliseconds(2), [&](orb::ServerRequest& req) {
          const img::RgbImage received = img::decode_ppm(req.body);
          const TimePoint begin = bed.engine.now();
          // Sequence the three detectors on the simulated CPU.
          const std::size_t pixels = received.to_gray().pixel_count();
          Duration total = Duration::zero();
          for (const auto a : algorithms) {
            total += img::estimated_cost(a, pixels, bed.server_cpu.hz());
          }
          bed.server_cpu.submit_for(total, 100,
                                    [&, begin] {
                                      per_image_ms.add((bed.engine.now() - begin).millis());
                                      send_next();
                                    },
                                    reserve);
        });
    const orb::ObjectRef atr_ref = atr_poa.activate_object("processor", servant);
    orb::ObjectStub stub(bed.client_orb, atr_ref);
    std::uint64_t seed = 1;
    send_next = [&] {
      if (remaining-- <= 0) return;
      stub.oneway("process_image", img::encode_ppm(img::make_paper_scene(seed++)));
    };
    send_next();
    bed.engine.run_until(bed.engine.now() + seconds(60));
    load.stop();

    std::cout << "  " << (with_reserve ? "with 95% CPU reserve" : "no reserve       ")
              << ": " << per_image_ms.count() << " images, mean "
              << per_image_ms.mean() << " ms/image, stddev " << per_image_ms.stddev()
              << " ms\n";
  }
  std::cout << "\n(the reserve shields the ATR pipeline from the competing load)\n";
  return 0;
}
