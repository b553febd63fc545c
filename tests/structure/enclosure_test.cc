#include "structure/enclosure.h"

#include <gtest/gtest.h>

namespace deepnote::structure {
namespace {

EnclosureSpec bare(WallMaterial material) {
  EnclosureSpec spec;
  spec.material = material;
  spec.mass_law_reference_db = 20.0;
  return spec;
}

TEST(EnclosureTest, MassLawRisesSixDbPerOctave) {
  Enclosure enc(bare(WallMaterial::steel()));
  const double at_2k = enc.transmission_loss_db(2000.0);
  const double at_4k = enc.transmission_loss_db(4000.0);
  EXPECT_NEAR(at_4k - at_2k, 6.02, 0.01);
}

TEST(EnclosureTest, HeavierWallBlocksMore) {
  Enclosure plastic(bare(WallMaterial::hard_plastic()));
  Enclosure aluminum(bare(WallMaterial::aluminum()));
  Enclosure steel(bare(WallMaterial::steel()));
  for (double f : {650.0, 2000.0, 8000.0}) {
    EXPECT_LT(plastic.transmission_loss_db(f),
              aluminum.transmission_loss_db(f))
        << f;
    EXPECT_LT(aluminum.transmission_loss_db(f),
              steel.transmission_loss_db(f))
        << f;
  }
}

TEST(EnclosureTest, MassLawNeverAmplifiesWithoutModes) {
  Enclosure enc(bare(WallMaterial::hard_plastic()));
  for (double f = 20.0; f < 20000.0; f *= 1.5) {
    EXPECT_GE(enc.transmission_loss_db(f), 0.0) << f;
  }
}

TEST(EnclosureTest, PanelModePunchesHole) {
  EnclosureSpec spec = bare(WallMaterial::aluminum());
  Enclosure without(spec);
  spec.panel_modes.push_back(
      Mode{.f0_hz = 800.0, .q = 6.0, .peak_gain_db = 15.0, .label = {}});
  Enclosure with(spec);
  // At the mode, the wall leaks ~15 dB more than the bare mass law.
  EXPECT_NEAR(without.transmission_loss_db(800.0) -
                  with.transmission_loss_db(800.0),
              15.0, 1.0);
  // Far away the hole closes.
  EXPECT_NEAR(without.transmission_loss_db(8000.0),
              with.transmission_loss_db(8000.0), 2.0);
}

TEST(EnclosureTest, InteriorSplSubtractsLoss) {
  Enclosure enc(bare(WallMaterial::aluminum()));
  const double tl = enc.transmission_loss_db(1000.0);
  EXPECT_NEAR(enc.interior_spl_db(160.0, 1000.0), 160.0 - tl, 1e-9);
}

TEST(EnclosureTest, InteriorCouplingOffset) {
  EnclosureSpec spec = bare(WallMaterial::aluminum());
  spec.interior_coupling_db = 5.0;
  Enclosure enc(spec);
  Enclosure base(bare(WallMaterial::aluminum()));
  EXPECT_NEAR(base.transmission_loss_db(1000.0) -
                  enc.transmission_loss_db(1000.0),
              5.0, 1e-9);
}

TEST(WallMaterialTest, PresetOrdering) {
  EXPECT_LT(WallMaterial::hard_plastic().surface_density_kg_m2,
            WallMaterial::aluminum().surface_density_kg_m2);
  EXPECT_LT(WallMaterial::aluminum().surface_density_kg_m2,
            WallMaterial::steel().surface_density_kg_m2);
  // Metals ring longer (lower loss factor).
  EXPECT_GT(WallMaterial::hard_plastic().loss_factor,
            WallMaterial::aluminum().loss_factor);
}

}  // namespace
}  // namespace deepnote::structure
