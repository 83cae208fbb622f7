// SPDX-License-Identifier: Apache-2.0
// Tile implementation (paper §IV): 2D places logic and all SRAM macros on
// one die; 3D (Macro-3D, F2F) partitions the tile into a logic die and a
// memory die. The partitioner reproduces the paper's flexible scheme: by
// default all SPM banks and the I$ data banks go to the memory die
// (Figure 1); when the memory die becomes the footprint bottleneck (8 MiB),
// SPM banks and the I$ move back to the logic die until the dies balance
// (Figure 3c keeps 15 of 16 banks on the memory die).
#pragma once

#include <string>
#include <vector>

#include "arch/params.hpp"
#include "phys/netlist.hpp"
#include "phys/packer.hpp"
#include "phys/sram.hpp"
#include "phys/tech.hpp"

namespace mp3d::phys {

enum class Flow : u8 { k2D, k3D };

const char* flow_name(Flow flow);

struct TileImpl {
  Flow flow = Flow::k2D;
  u64 spm_capacity = 0;          ///< cluster-level capacity this tile serves

  double footprint_mm2 = 0.0;    ///< silicon outline (per die for 3D)
  double width_mm = 0.0;
  double height_mm = 0.0;

  double logic_cell_area_mm2 = 0.0;
  double macro_area_total_mm2 = 0.0;
  double macro_area_logic_die_mm2 = 0.0;  ///< 3D: macros moved to logic die

  double logic_die_util = 0.0;   ///< 2D: overall core utilization
  double mem_die_util = 0.0;     ///< 3D only

  u32 spm_banks_on_logic_die = 0;
  bool icache_on_logic_die = false;

  SramMacro bank_macro;          ///< representative SPM bank macro
  double sram_access_ns = 0.0;
  double sram_leakage_mw = 0.0;  ///< all macros of this tile
  double logic_leakage_mw = 0.0;

  /// Architectural die-crossing signals (3D only; excludes routing vias,
  /// which the group flow adds).
  u32 f2f_signals = 0;

  std::string to_string() const;
};

/// Implement one tile of the given cluster configuration.
TileImpl implement_tile(const arch::ClusterConfig& cfg, const Technology& tech,
                        Flow flow);

}  // namespace mp3d::phys
