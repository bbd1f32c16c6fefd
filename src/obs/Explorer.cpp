//===- Explorer.cpp - Offline search-explorer HTML generator ---------------==//

#include "obs/Explorer.h"

#include <sstream>

using namespace seminal;
using namespace seminal::obs;

namespace {

/// Serializes the span stream as a JSON array (microsecond timestamps,
/// attrs flattened into one object per event).
void writeEventsJson(std::ostream &OS, const std::vector<TraceEvent> &Events) {
  OS << "[";
  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    if (I)
      OS << ",";
    OS << "{\"id\":" << E.Id << ",\"parent\":" << E.Parent
       << ",\"kind\":\"" << spanKindName(E.Kind) << "\",\"name\":\""
       << jsonEscape(E.Name) << "\",\"start_us\":" << E.StartNs / 1000
       << ",\"dur_us\":" << E.DurNs / 1000 << ",\"tid\":" << E.ThreadId
       << ",\"attrs\":{";
    for (size_t A = 0; A < E.Attrs.size(); ++A) {
      const TraceAttr &At = E.Attrs[A];
      if (A)
        OS << ",";
      OS << "\"" << jsonEscape(At.Key) << "\":";
      switch (At.T) {
      case TraceAttr::Type::String:
        OS << "\"" << jsonEscape(At.Str) << "\"";
        break;
      case TraceAttr::Type::Int:
        OS << At.Int;
        break;
      case TraceAttr::Type::Bool:
        OS << (At.Flag ? "true" : "false");
        break;
      case TraceAttr::Type::Double:
        OS << At.Dbl;
        break;
      }
    }
    OS << "}}";
  }
  OS << "]";
}

/// JSON embedded in a <script> block must not contain "<" (it could form
/// "</script>" inside a string and truncate the document). "<" only
/// occurs inside JSON strings, where < is equivalent.
std::string htmlSafe(const std::string &Json) {
  std::string Out;
  Out.reserve(Json.size());
  for (char C : Json) {
    if (C == '<')
      Out += "\\u003c";
    else
      Out += C;
  }
  return Out;
}

// The page skeleton. Styling follows the repo's data-viz conventions:
// categorical colors are assigned to search layers in a fixed slot order
// (never cycled; overflow layers fold to a neutral), text wears text
// tokens rather than series colors, and dark mode is a selected palette,
// not an automatic inversion.
const char *PageHead = R"html(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #8a887f;
  --border: #dddbd4;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948; --series-other: #8a887f;
  --core: #eda100; --infl: #86b6ef;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #252523;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #8a887f;
    --border: #3a3935;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767; --series-other: #8a887f;
    --core: #c98500; --infl: #1c5cab;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 1.5rem; background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 1.3rem; margin: 0 0 .25rem; }
h2 { font-size: 1.05rem; margin: 2rem 0 .5rem; }
.sub { color: var(--text-secondary); margin-bottom: 1rem; }
.tiles { display: flex; flex-wrap: wrap; gap: .75rem; margin: 1rem 0; }
.tile {
  background: var(--surface-2); border: 1px solid var(--border);
  border-radius: 8px; padding: .6rem .9rem; min-width: 8rem;
}
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: .8rem; }
.legend { display: flex; flex-wrap: wrap; gap: .4rem .9rem; margin: .5rem 0;
  color: var(--text-secondary); font-size: .85rem; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: .3rem; vertical-align: -1px; }
.badge { display: inline-block; border-radius: 4px; padding: 0 .4rem;
  font-size: .75rem; border: 1px solid var(--border);
  color: var(--text-secondary); margin-right: .35rem; }
.dot { display: inline-block; width: 9px; height: 9px; border-radius: 50%;
  margin-right: .45rem; vertical-align: -1px; }
ol.sugg { padding-left: 1.5rem; }
ol.sugg li { margin: .45rem 0; }
ol.sugg .desc { font-weight: 600; }
.meta { color: var(--text-muted); font-size: .85rem; }
details.span { margin-left: 1.1rem; border-left: 1px solid var(--border);
  padding-left: .5rem; }
details.span > summary { cursor: pointer; list-style: none;
  white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }
details.span > summary::before { content: "\25B8"; color: var(--text-muted);
  display: inline-block; width: 1em; }
details.span[open] > summary::before { content: "\25BE"; }
details.span.leaf > summary::before { content: "\00B7"; }
summary .fail { color: var(--text-muted); }
summary .ok { font-weight: 600; }
.in-core > summary { outline: 2px solid var(--core); outline-offset: 1px;
  border-radius: 4px; }
.in-infl > summary { background:
  color-mix(in srgb, var(--infl) 18%, transparent); border-radius: 4px; }
#timeline { width: 100%; background: var(--surface-2);
  border: 1px solid var(--border); border-radius: 8px; }
#tooltip { position: fixed; display: none; pointer-events: none;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: .35rem .6rem; font-size: .8rem; z-index: 10;
  max-width: 24rem; box-shadow: 0 2px 8px rgba(0,0,0,.25); }
pre.src { background: var(--surface-2); border: 1px solid var(--border);
  border-radius: 8px; padding: .8rem; overflow-x: auto; }
table.kinds { border-collapse: collapse; font-size: .85rem; }
table.kinds td, table.kinds th { border: 1px solid var(--border);
  padding: .2rem .6rem; text-align: left; }
table.kinds th { color: var(--text-secondary); font-weight: 600; }
.clash { font-weight: 600; }
</style>
</head>
<body>
)html";

const char *PageScript = R"html(<div id="tooltip"></div>
<script>
"use strict";
// Fixed categorical slot order for search layers -- identity follows the
// layer, never its rank in this particular trace; layers beyond the
// assigned set fold to the neutral "other" color.
const LAYER_SLOTS = {
  "localize": 1, "constructive": 2, "removal": 3, "adaptation": 4,
  "triage": 5, "pattern-fix": 6, "decl-change": 7, "slice": 8,
};
function layerColor(layer) {
  const s = LAYER_SLOTS[layer];
  return s ? `var(--series-${s})` : "var(--series-other)";
}
const R = DATA.report, EV = DATA.events;
const fmt = (n) => n.toLocaleString("en-US");
const el = (tag, cls, text) => {
  const e = document.createElement(tag);
  if (cls) e.className = cls;
  if (text !== undefined) e.textContent = text;
  return e;
};

// --- Stat tiles ---------------------------------------------------------
(function tiles() {
  const t = document.getElementById("tiles");
  const add = (k, v) => {
    const d = el("div", "tile");
    d.appendChild(el("div", "v", v));
    d.appendChild(el("div", "k", k));
    t.appendChild(d);
  };
  add("oracle calls", fmt(R.effort.oracle_calls));
  add("inference runs", fmt(R.effort.inference_runs));
  add("cache hits", fmt(R.effort.cache_hits));
  add("suggestions", fmt(R.outcome.suggestions.length));
  add("wall time", (R.effort.wall_seconds * 1000).toFixed(1) + " ms");
})();

// --- Ranked suggestions -------------------------------------------------
(function suggestions() {
  const ol = document.getElementById("sugg");
  if (!R.outcome.suggestions.length) {
    document.getElementById("sugg-empty").style.display = "block";
    return;
  }
  for (const s of R.outcome.suggestions) {
    const li = el("li");
    const dot = el("span", "dot");
    dot.style.background = layerColor(s.layer);
    li.appendChild(dot);
    li.appendChild(el("span", "desc", s.description));
    const meta = el("div", "meta");
    const badge = (t) => meta.appendChild(el("span", "badge", t));
    badge(s.kind);
    badge(s.layer);
    if (s.via_triage) badge("via triage");
    if (s.in_slice) badge("in slice core");
    if (s.likely_unbound) badge("likely unbound");
    meta.appendChild(el("span", "", " at " + (s.path || "(decl)")));
    li.appendChild(meta);
    ol.appendChild(li);
  }
})();

// --- Shared legend ------------------------------------------------------
function legendInto(id, layers) {
  const lg = document.getElementById(id);
  for (const l of layers) {
    const item = el("span");
    const sw = el("span", "sw");
    sw.style.background = layerColor(l);
    item.appendChild(sw);
    item.appendChild(document.createTextNode(l));
    lg.appendChild(item);
  }
}

// --- Search tree --------------------------------------------------------
const coreSet = new Set(R.slice.core_paths);
const inflSet = new Set(R.slice.influence_paths);
(function tree() {
  const byParent = new Map();
  for (const e of EV) {
    if (!byParent.has(e.parent)) byParent.set(e.parent, []);
    byParent.get(e.parent).push(e);
  }
  for (const kids of byParent.values())
    kids.sort((a, b) => a.start_us - b.start_us || a.id - b.id);
  const seenLayers = new Set();
  function attrOf(e, k) { return e.attrs[k]; }
  function nodeLayer(e) {
    return attrOf(e, "layer") ||
      ({"oracle-call": "", "candidate": "constructive",
        "triage": "triage", "triage-phase": "triage",
        "pattern-fix": "pattern-fix", "decl-changes": "decl-change",
        "localize": "localize", "slice": "slice"})[e.kind] || "";
  }
  function label(e) {
    const parts = [];
    const path = attrOf(e, "path");
    if (path !== undefined) parts.push(path);
    const desc = attrOf(e, "description");
    if (desc) parts.push(desc);
    const layer = attrOf(e, "layer");
    if (layer) parts.push(layer);
    const served = attrOf(e, "served_by");
    if (served && served !== "full-inference") parts.push(served);
    if (e.dur_us >= 1000) parts.push((e.dur_us / 1000).toFixed(1) + " ms");
    return parts.join(" · ");
  }
  function render(e, depth) {
    const d = el("details", "span");
    if (depth < 3) d.open = true;
    const kids = byParent.get(e.id) || [];
    if (!kids.length) { d.className += " leaf"; }
    const s = el("summary");
    const layer = nodeLayer(e);
    if (layer) seenLayers.add(layer);
    const dot = el("span", "dot");
    dot.style.background = layer ? layerColor(layer) : "var(--series-other)";
    s.appendChild(dot);
    s.appendChild(el("span", "badge", e.kind));
    const verdict = attrOf(e, "verdict");
    if (verdict !== undefined)
      s.appendChild(el("span", verdict ? "ok" : "fail",
                       verdict ? "✓ " : "✗ "));
    s.appendChild(document.createTextNode(label(e)));
    d.appendChild(s);
    const path = attrOf(e, "path");
    if (path !== undefined && coreSet.has(path)) d.classList.add("in-core");
    else if (path !== undefined && inflSet.has(path)) d.classList.add("in-infl");
    // Collapse oracle-call noise: calls render as leaves, capped per node.
    let shown = 0;
    for (const k of kids) {
      if (k.kind === "oracle-call" && ++shown > 40) {
        d.appendChild(el("div", "meta",
          "… " + (kids.length - shown + 1) + " more oracle calls"));
        break;
      }
      d.appendChild(render(k, depth + 1));
    }
    return d;
  }
  const root = document.getElementById("tree");
  for (const e of byParent.get(0) || []) root.appendChild(render(e, 0));
  if (!EV.length)
    root.appendChild(el("div", "meta", "no trace events recorded"));
  legendInto("tree-legend", [...seenLayers].sort());
})();

// --- Oracle-call timeline ----------------------------------------------
(function timeline() {
  const calls = EV.filter((e) => e.kind === "oracle-call");
  const box = document.getElementById("timeline-box");
  if (!calls.length) {
    box.appendChild(el("div", "meta", "no oracle-call spans in the trace"));
    return;
  }
  const layers = [...new Set(calls.map((e) => e.attrs.layer || "unattributed"))]
    .sort();
  legendInto("tl-legend", layers);
  const laneH = 22, pad = 4, axisH = 22, labelW = 110;
  const spanEnd = Math.max(...calls.map((e) => e.start_us + e.dur_us));
  const t0 = Math.min(...calls.map((e) => e.start_us));
  const W = 1100, plotW = W - labelW - 10;
  const H = layers.length * laneH + axisH + pad * 2;
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("viewBox", `0 0 ${W} ${H}`);
  svg.id = "timeline";
  const sx = (us) => labelW + ((us - t0) / Math.max(1, spanEnd - t0)) * plotW;
  const mk = (tag) =>
    document.createElementNS("http://www.w3.org/2000/svg", tag);
  layers.forEach((l, i) => {
    const y = pad + i * laneH;
    const t = mk("text");
    t.setAttribute("x", 4); t.setAttribute("y", y + laneH - 8);
    t.setAttribute("fill", "var(--text-secondary)");
    t.setAttribute("font-size", "11");
    t.textContent = l;
    svg.appendChild(t);
    const ln = mk("line");
    ln.setAttribute("x1", labelW); ln.setAttribute("x2", W - 10);
    ln.setAttribute("y1", y + laneH - 3); ln.setAttribute("y2", y + laneH - 3);
    ln.setAttribute("stroke", "var(--border)");
    svg.appendChild(ln);
  });
  const tip = document.getElementById("tooltip");
  for (const c of calls) {
    const lane = layers.indexOf(c.attrs.layer || "unattributed");
    const r = mk("rect");
    const x = sx(c.start_us);
    r.setAttribute("x", x.toFixed(2));
    r.setAttribute("y", pad + lane * laneH + 3);
    r.setAttribute("width",
      Math.max(1.5, sx(c.start_us + c.dur_us) - x).toFixed(2));
    r.setAttribute("height", laneH - 9);
    r.setAttribute("rx", 1.5);
    r.setAttribute("fill", layerColor(c.attrs.layer || ""));
    r.addEventListener("mousemove", (ev) => {
      tip.style.display = "block";
      tip.style.left = Math.min(ev.clientX + 14, innerWidth - 260) + "px";
      tip.style.top = (ev.clientY + 14) + "px";
      const a = c.attrs;
      tip.textContent =
        `${a.layer || "unattributed"} · ${c.dur_us} µs` +
        (a.served_by ? ` · ${a.served_by}` : "") +
        (a.verdict !== undefined ? (a.verdict ? " · ✓" : " · ✗") : "") +
        (a.cache_hit ? " · cache hit" : "");
    });
    r.addEventListener("mouseleave", () => { tip.style.display = "none"; });
    svg.appendChild(r);
  }
  const axis = mk("text");
  axis.setAttribute("x", labelW);
  axis.setAttribute("y", H - 6);
  axis.setAttribute("fill", "var(--text-muted)");
  axis.setAttribute("font-size", "11");
  axis.textContent =
    `0 → ${((spanEnd - t0) / 1000).toFixed(1)} ms, ` +
    `${calls.length} oracle calls`;
  svg.appendChild(axis);
  box.appendChild(svg);
})();

// --- Slice panel --------------------------------------------------------
(function slicePanel() {
  const p = document.getElementById("slice");
  if (!R.slice.valid) {
    p.appendChild(el("div", "meta",
      "no error slice recorded for this run (run with --slice, or the " +
      "failure was not sliceable)"));
    return;
  }
  const head = el("div");
  head.appendChild(el("span", "",
    `influence set: ${R.slice.influence} nodes, minimized core: ` +
    `${R.slice.core} nodes`));
  p.appendChild(head);
  const mk = (title, paths, cls) => {
    if (!paths.length) return;
    const d = el("div");
    d.appendChild(el("span", "badge", title));
    for (const q of paths) {
      const b = el("span", "badge", q || "(decl)");
      b.classList.add(cls);
      d.appendChild(b);
    }
    p.appendChild(d);
  };
  mk("core paths", R.slice.core_paths, "in-core");
  mk("influence paths", R.slice.influence_paths, "in-infl");
  p.appendChild(el("div", "meta",
    "core nodes are outlined in the search tree above; influence nodes " +
    "are tinted"));
})();

// --- Live ops panel -----------------------------------------------------
// Renders a scraped OpsRegistry snapshot (DATA.ops): headline tiles for
// traffic and latency, then the full instrument table. Absent when the
// page was built without --ops-snapshot.
(() => {
  const ops = DATA.ops;
  const box = document.getElementById("ops");
  if (!ops) {
    document.getElementById("ops-h").style.display = "none";
    box.style.display = "none";
    return;
  }
  const tiles = el("div", "tiles");
  const tile = (k, v) => {
    const t = el("div", "tile");
    t.appendChild(el("div", "v", v));
    t.appendChild(el("div", "k", k));
    tiles.appendChild(t);
  };
  // A family's tile sums its series (seminal_warm_hits_total has one
  // per kind).
  const counterVal = (n) => {
    const f = ops[n];
    return f && f.values.length
        ? f.values.reduce((sum, v) => sum + v.value, 0) : null;
  };
  for (const [name, label] of [["seminal_requests_total", "requests"],
                               ["seminal_checks_total", "checks"],
                               ["seminal_warm_hits_total", "warm hits"],
                               ["seminal_sessions", "sessions"],
                               ["seminal_evictions_total", "evictions"],
                               ["seminal_slow_traces_total", "slow traces"]]) {
    const v = counterVal(name);
    if (v !== null) tile(label, fmt(v));
  }
  const lat = ops["seminal_request_latency_us"];
  if (lat) for (const inst of lat.values) {
    if (!inst.count) continue;
    const state = inst.labels.state || "?";
    tile(`${state} p50 / p95 (ms)`,
         `${(inst.p50 / 1000).toFixed(1)} / ${(inst.p95 / 1000).toFixed(1)}`);
  }
  // SLO burn rate: the gauges carry milli-burn (1000 = spending the
  // error budget exactly at the sustainable rate). Tint the tile when a
  // window is burning hot.
  const burn = ops["seminal_slo_burn_rate_milli"];
  if (burn) for (const inst of burn.values) {
    const t = el("div", "tile");
    const v = el("div", "v", (inst.value / 1000).toFixed(2) + "x");
    if (inst.value > 1000) v.style.color = "#c0392b";
    t.appendChild(v);
    t.appendChild(el("div", "k",
                     `${inst.labels.window || "?"}-window SLO burn`));
    tiles.appendChild(t);
  }
  const cpu = ops["seminal_cost_cpu_us_total"];
  if (cpu && cpu.values.length)
    tile("total check CPU (s)", (cpu.values[0].value / 1e6).toFixed(2));
  box.appendChild(tiles);
  const tbl = el("table", "kinds");
  const hdr = el("tr");
  for (const h of ["metric", "labels", "value / p50", "p95", "p99", "count"])
    hdr.appendChild(el("th", null, h));
  tbl.appendChild(hdr);
  for (const name of Object.keys(ops).sort()) {
    const f = ops[name];
    for (const inst of f.values) {
      const tr = el("tr");
      tr.appendChild(el("td", null, name));
      tr.appendChild(el("td", null,
        Object.entries(inst.labels).map(([k, v]) => `${k}=${v}`).join(",")));
      if (f.type === "histogram") {
        tr.appendChild(el("td", null, fmt(inst.p50)));
        tr.appendChild(el("td", null, fmt(inst.p95)));
        tr.appendChild(el("td", null, fmt(inst.p99)));
        tr.appendChild(el("td", null, fmt(inst.count)));
      } else {
        tr.appendChild(el("td", null, fmt(inst.value)));
        tr.appendChild(el("td", null, ""));
        tr.appendChild(el("td", null, ""));
        tr.appendChild(el("td", null, ""));
      }
      tbl.appendChild(tr);
    }
  }
  box.appendChild(tbl);
})();

// --- Flamegraph panel ---------------------------------------------------
// Renders DATA.profile (a ProfileSnapshot: folded stacks + exact phase
// CPU) as a classic bottom-up flamegraph -- a trie over the folded
// stacks, each frame a box whose width is its subtree's sample share.
// Absent when the page was built without --profile-snapshot.
(() => {
  const prof = DATA.profile;
  const box = document.getElementById("flame");
  if (!prof || !prof.samples) {
    document.getElementById("flame-h").style.display = "none";
    box.style.display = "none";
    return;
  }
  // Fold the stack list into a trie of {name, total, kids}.
  const root = { name: "all", total: 0, kids: new Map() };
  for (const { stack, count } of prof.stacks) {
    root.total += count;
    let node = root;
    for (const frame of stack.split(";")) {
      if (!node.kids.has(frame))
        node.kids.set(frame, { name: frame, total: 0, kids: new Map() });
      node = node.kids.get(frame);
      node.total += count;
    }
  }
  const W = 940, ROW = 18;
  let depthMax = 0;
  (function measure(n, d) {
    depthMax = Math.max(depthMax, d);
    for (const k of n.kids.values()) measure(k, d + 1);
  })(root, 0);
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("width", W);
  svg.setAttribute("height", (depthMax + 1) * ROW + 4);
  const colors = ["#e8833a", "#d6616b", "#e7ba52", "#ad494a", "#e7969c"];
  let ci = 0;
  (function draw(n, d, x0, x1) {
    if (d >= 0 && x1 - x0 >= 1) {
      const g = document.createElementNS(svg.namespaceURI, "g");
      const r = document.createElementNS(svg.namespaceURI, "rect");
      r.setAttribute("x", x0); r.setAttribute("y", d * ROW + 2);
      r.setAttribute("width", Math.max(x1 - x0 - 0.5, 0.5));
      r.setAttribute("height", ROW - 2);
      r.setAttribute("fill", colors[ci++ % colors.length]);
      r.setAttribute("rx", 2);
      const title = document.createElementNS(svg.namespaceURI, "title");
      title.textContent = `${n.name}: ${n.total} samples ` +
        `(${(100 * n.total / root.total).toFixed(1)}%)`;
      g.appendChild(r);
      if (x1 - x0 > 40) {
        const t = document.createElementNS(svg.namespaceURI, "text");
        t.setAttribute("x", x0 + 3);
        t.setAttribute("y", d * ROW + ROW - 4);
        t.setAttribute("font-size", "11");
        t.setAttribute("fill", "#fff");
        t.textContent = n.name.length > (x1 - x0) / 7
          ? n.name.slice(0, Math.max((x1 - x0) / 7 - 1, 1)) + "…"
          : n.name;
        g.appendChild(t);
      }
      g.appendChild(title);
      svg.appendChild(g);
    }
    let x = x0;
    for (const k of [...n.kids.values()].sort((a, b) => b.total - a.total)) {
      const w = (x1 - x0) * k.total / n.total;
      draw(k, d + 1, x, x + w);
      x += w;
    }
  })(root, -1, 0, W);
  box.appendChild(svg);
  box.appendChild(el("div", "meta",
    `${prof.samples} samples over ${prof.threads} thread slots` +
    (prof.truncated ? `, ${prof.truncated} truncated at max depth` : "")));
  // Exact per-phase CPU table (the kind-masked stamped spans).
  if (prof.cpu_self && prof.cpu_self.length) {
    const tbl = el("table", "kinds");
    const hdr = el("tr");
    for (const h of ["phase", "exact self CPU (ms)", "enters"])
      hdr.appendChild(el("th", null, h));
    tbl.appendChild(hdr);
    for (const e of [...prof.cpu_self].sort((a, b) => b.self_ns - a.self_ns)) {
      const tr = el("tr");
      tr.appendChild(el("td", null, e.name));
      tr.appendChild(el("td", null, (e.self_ns / 1e6).toFixed(2)));
      tr.appendChild(el("td", null, fmt(e.enters)));
      tbl.appendChild(tr);
    }
    box.appendChild(tbl);
  }
})();

// --- Source panel -------------------------------------------------------
document.getElementById("src").textContent = DATA.source;

// --- Header -------------------------------------------------------------
document.getElementById("prog-id").textContent = R.program.id;
document.getElementById("quality").textContent =
  R.quality.ours === "unknown"
    ? "no ground truth for this run"
    : `quality: ours ${R.quality.ours}, checker ${R.quality.checker}` +
      (R.quality.rank_of_true_fix
        ? `, true fix ranked #${R.quality.rank_of_true_fix}` : "");
</script>
</body>
</html>
)html";

} // namespace

void obs::writeExplorerHtml(std::ostream &OS,
                            const std::vector<TraceEvent> &Events,
                            const RunReport &Report,
                            const std::string &Source,
                            const ExplorerOptions &Opts) {
  std::ostringstream Data;
  Data << "{\"report\":";
  Report.writeJson(Data);
  Data << ",\"source\":\"" << jsonEscape(Source) << "\",\"events\":";
  writeEventsJson(Data, Events);
  Data << ",\"ops\":" << (Opts.OpsJson.empty() ? "null" : Opts.OpsJson);
  Data << ",\"profile\":"
       << (Opts.ProfileJson.empty() ? "null" : Opts.ProfileJson);
  Data << "}";

  OS << PageHead;
  OS << "<h1>" << jsonEscape(Opts.Title) << "</h1>\n";
  OS << "<div class=\"sub\">program <b id=\"prog-id\"></b> &middot; "
        "<span id=\"quality\"></span></div>\n"
        "<div class=\"tiles\" id=\"tiles\"></div>\n"
        "<h2>Ranked suggestions</h2>\n"
        "<div id=\"sugg-empty\" class=\"meta\" style=\"display:none\">"
        "no suggestions -- the search found no accepted change</div>\n"
        "<ol class=\"sugg\" id=\"sugg\"></ol>\n"
        "<h2>Search tree</h2>\n"
        "<div class=\"legend\" id=\"tree-legend\"></div>\n"
        "<div id=\"tree\"></div>\n"
        "<h2>Oracle-call timeline</h2>\n"
        "<div class=\"legend\" id=\"tl-legend\"></div>\n"
        "<div id=\"timeline-box\"></div>\n"
        "<h2>Error slice</h2>\n"
        "<div id=\"slice\"></div>\n"
        "<h2 id=\"ops-h\">Live ops</h2>\n"
        "<div id=\"ops\"></div>\n"
        "<h2 id=\"flame-h\">Profile flamegraph</h2>\n"
        "<div id=\"flame\"></div>\n"
        "<h2>Source</h2>\n"
        "<pre class=\"src\" id=\"src\"></pre>\n";
  OS << "<script>const DATA = " << htmlSafe(Data.str()) << ";</script>\n";
  OS << PageScript;
}
