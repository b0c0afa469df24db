#include "dse/pareto.h"

#include <algorithm>

namespace act::dse {

bool
dominates(const Point2D &a, const Point2D &b)
{
    return a.x <= b.x && a.y <= b.y && (a.x < b.x || a.y < b.y);
}

std::vector<std::size_t>
paretoFrontier(std::span<const Point2D> points)
{
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (i != j && dominates(points[j], points[i])) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            frontier.push_back(i);
    }
    std::sort(frontier.begin(), frontier.end(),
              [&points](std::size_t a, std::size_t b) {
                  return points[a].x < points[b].x;
              });
    return frontier;
}

} // namespace act::dse
