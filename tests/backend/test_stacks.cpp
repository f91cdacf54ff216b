// The stack table: rows follow TransportKind, every preset builds its own
// stack, the two name errors list every row, and the field walk that
// both the parser and the signature use covers every machine-file key.
#include "backend/stacks.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "backend/machine_file.hpp"
#include "backend/sim_cluster.hpp"
#include "common/error.hpp"

namespace comb::backend {
namespace {

MachineConfig parse(const std::string& text) {
  std::istringstream in(text);
  return parseMachineFile(in, "test.ini");
}

template <typename F>
std::string errorOf(F&& f) {
  try {
    f();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(Stacks, RowsFollowTransportKinds) {
  std::size_t i = 0;
  for (const StackRow& row : stacks()) {
    EXPECT_EQ(static_cast<std::size_t>(row.kind), i++);
    EXPECT_EQ(&stackRow(row.kind), &row);
    EXPECT_STREQ(transportKindName(row.kind), row.name);
    EXPECT_FALSE(row.presets.empty()) << row.name;
  }
  EXPECT_EQ(i, 4u);
}

TEST(Stacks, EveryPresetBuildsItsRowsStack) {
  for (const StackRow& row : stacks()) {
    for (const StackPreset& p : row.presets) {
      const MachineConfig m = presetMachine(p.name);
      EXPECT_EQ(m.kind, row.kind) << p.name;
      EXPECT_EQ(m.name, p.name);
      EXPECT_EQ(machineHash(m), machineHash(p.make()));
    }
    // `transport = <row>` starts from the row's first preset.
    EXPECT_EQ(machineHash(parse(std::string("transport = ") + row.name)),
              machineHash(row.presets.front().make()))
        << row.name;
  }
  EXPECT_EQ(presetNames(),
            "gm | portals | progress_thread | progress_oversub | rdma");
}

TEST(Stacks, UnknownMachineErrorNamesEveryPreset) {
  const std::string msg = errorOf([] { presetMachine("ib"); });
  EXPECT_EQ(msg,
            "unknown machine 'ib' (gm | portals | progress_thread | "
            "progress_oversub | rdma)");
  for (const StackRow& row : stacks()) {
    EXPECT_NE(msg.find(row.name), std::string::npos) << row.name;
    for (const StackPreset& p : row.presets)
      EXPECT_NE(msg.find(p.name), std::string::npos) << p.name;
  }
}

TEST(Stacks, UnknownTransportErrorNamesEveryRow) {
  const std::string msg = errorOf([] { parse("transport = infiniband\n"); });
  EXPECT_EQ(msg,
            "test.ini: transport must be 'gm', 'portals', 'progress_thread' "
            "or 'rdma', got 'infiniband'");
  for (const StackRow& row : stacks())
    EXPECT_NE(msg.find(std::string("'") + row.name + "'"), std::string::npos)
        << row.name;
}

TEST(Stacks, EveryMachineFileKeyReachesTheSignature) {
  // A key the parser reads but the signature misses (or the reverse)
  // would let two different machines share a hash.
  for (const StackRow& row : stacks()) {
    const std::string base = machineSignature(row.presets.front().make());
    MachineConfig probe = row.presets.front().make();
    for (const StackField& f : row.fields(probe)) {
      const std::string header = std::string("transport = ") + row.name +
                                 "\n[" + row.section + "]\n";
      if (!f.fileKey) {
        // Signature-only fields are not machine-file keys.
        EXPECT_THROW(parse(header + f.sigKey + " = 1\n"), ConfigError)
            << row.name << " " << f.sigKey;
        continue;
      }
      const auto* choice = std::get_if<StackChoice>(&f.member);
      const std::string value = choice ? choice->whenFalse : "3.25";
      const MachineConfig m = parse(header + f.fileKey + " = " + value + "\n");
      EXPECT_NE(machineSignature(m), base) << row.name << " " << f.fileKey;
      EXPECT_NE(machineSignature(m).find(std::string(row.section) + "." +
                                         f.sigKey + "="),
                std::string::npos)
          << row.name << " " << f.sigKey;
    }
  }
}

TEST(Stacks, EveryPresetWiresAClusterThroughItsFactory) {
  for (const StackRow& row : stacks()) {
    for (const StackPreset& p : row.presets)
      EXPECT_NO_THROW(SimCluster(p.make(), 2)) << p.name;
  }
}

TEST(Stacks, FactoryRejectsADedicatedEngineWithoutItsOwnCore) {
  MachineConfig m = progressThreadMachine();
  m.nicCpu = 0;
  EXPECT_THROW(SimCluster(m, 2), ConfigError);
}

}  // namespace
}  // namespace comb::backend
