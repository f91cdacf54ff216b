// COMB paper Figs 4-17 from one table (paper.hpp): simulate every point
// the selected figures read, each distinct point once, in one batch over
// the pool; then render each figure in table order.
//
//   paper [--figure fig04,fig08] [--csv --out DIR] [--archive DIR]
//         [--trace FILE] [run options]
#include "paper.hpp"

using namespace comb::bench;
using namespace comb::bench::paper;

int main(int argc, char** argv) {
  const PaperArgs args = parsePaperArgs(argc, argv);
  if (!args.fig.parsedOk) return args.fig.exitCode;

  PointMemo memo(args.fig.opts);
  std::vector<Sweep> sweeps;
  for (const FigureRow* row : args.rows)
    for (Sweep& sw : row->sweeps(args.fig.pointsPerDecade))
      sweeps.push_back(std::move(sw));
  memo.fill(sweeps);

  int rc = 0;
  for (const FigureRow* row : args.rows)
    rc = std::max(rc, renderRow(*row, memo, args.fig));
  return rc;
}
