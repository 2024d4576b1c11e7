/**
 * @file
 * tacsim-paper [figure...]: the paper's evaluation from one program.
 *
 * Registers the named figures (all of them when none is named) on one
 * SweepRunner, so a point that several figures read runs once; runs the
 * sweep; prints each figure's paper-vs-measured table; and, when
 * TACSIM_JSON_OUT is set, writes one tacsim-sweep-v2 report. Exit 2
 * when an argument names no figure; exit 1 when a count variable is
 * malformed (before any point registers), when a point fails (each
 * failure printed, no table, the report still lists every run) or when
 * the report cannot be written.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>

#include "figures.hh"

using namespace tacbench;

int
main(int argc, char **argv)
{
    std::vector<const Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        const Figure *f = findFigure(argv[i]);
        if (!f) {
            std::fprintf(stderr, "usage: %s [figure...] (none: all); "
                         "figures:", argv[0]);
            for (const Figure *g : kFigures)
                std::fprintf(stderr, " %s", g->name);
            std::fprintf(stderr, "\n%s: '%s' is not a figure\n", argv[0],
                         argv[i]);
            return 2;
        }
        if (std::find(selected.begin(), selected.end(), f) == selected.end())
            selected.push_back(f);
    }
    if (selected.empty())
        selected.assign(std::begin(kFigures), std::end(kFigures));

    std::optional<SweepRunner> sweep;
    try {
        defaultInstructions();
        defaultWarmup();
        sweep.emplace(); // reads TACSIM_JOBS
        for (const Figure *f : selected)
            f->registerPoints(*sweep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tacsim: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "tacsim: sweeping %zu points on %u threads\n",
                 sweep->points(), sweep->threadCount());
    sweep->run();

    bool failed = false;
    for (const SweepOutcome *o : sweep->outcomes()) {
        if (!o->ok) {
            std::fprintf(stderr, "tacsim: sweep point '%s' FAILED: %s\n",
                         o->key.c_str(), o->error.c_str());
            failed = true;
        }
    }
    std::vector<ReportTable> tables;
    if (!failed) {
        try {
            for (const Figure *f : selected)
                tables.push_back({f->name, f->title, f->buildRows(*sweep)});
        } catch (const std::exception &e) {
            std::fprintf(stderr, "tacsim: %s\n", e.what());
            tables.clear();
            failed = true;
        }
    }

    for (const ReportTable &t : tables) {
        std::printf("\n=== %s ===\n%-28s %-14s %12s %12s %s\n",
                    t.title.c_str(), "series", "benchmark", "measured",
                    "paper", "unit");
        for (const ReportRow &r : t.rows) {
            std::printf("%-28s %-14s %12.3f ", r.series.c_str(),
                        r.label.c_str(), r.measured);
            if (std::isnan(r.paper))
                std::printf("%12s %s\n", "-", r.unit.c_str());
            else
                std::printf("%12.3f %s\n", r.paper, r.unit.c_str());
        }
    }
    std::fflush(stdout);
    return sweep->writeJsonFromEnv(tables) && !failed ? 0 : 1;
}
