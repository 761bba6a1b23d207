package metrics

// dashboardHTML is the self-contained live dashboard served at /. It is a
// single document — inline CSS, inline JS, no external assets — that polls
// /live once a second (the next request goes out a second after the previous
// reply, so a slow server never sees overlapping polls) and renders stat
// tiles plus SVG sparklines from the frames. The per-frame deltas the
// sparklines plot are worked out from the page's own previous frame. It must
// not contain backticks (it lives in a raw string).
//
// Colors follow the repo's chart convention: one fixed categorical slot per
// sparkline panel (never cycled), status red reserved for the anomaly tile,
// text in ink tokens rather than series colors, and a dark scheme that is its
// own stepped palette rather than an automatic inversion.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>dxbar telemetry</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --ink-1: #0b0b0b;
    --ink-2: #52514e;
    --ink-muted: #898781;
    --grid: #e1e0d9;
    --baseline: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6;
    --series-2: #eb6834;
    --series-3: #1baf7a;
    --series-4: #eda100;
    --status-good: #0ca30c;
    --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --ink-1: #ffffff;
      --ink-2: #c3c2b7;
      --ink-muted: #898781;
      --grid: #2c2c2a;
      --baseline: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5;
      --series-2: #d95926;
      --series-3: #199e70;
      --series-4: #c98500;
      --status-good: #0ca30c;
      --status-critical: #d03b3b;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 20px;
    background: var(--page); color: var(--ink-1);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 16px; }
  header h1 { font-size: 18px; font-weight: 600; margin: 0; }
  #conn { font-size: 12px; color: var(--ink-2); }
  #conn.down { color: var(--status-critical); font-weight: 600; }
  #progresswrap {
    flex: 1; max-width: 420px; height: 6px; border-radius: 3px;
    background: var(--grid); overflow: hidden; align-self: center;
  }
  #progressbar { height: 100%; width: 0; background: var(--series-1); border-radius: 3px; }
  #progresstext { font-size: 12px; color: var(--ink-2); min-width: 11em; }
  .tiles {
    display: grid; grid-template-columns: repeat(auto-fill, minmax(150px, 1fr));
    gap: 10px; margin-bottom: 18px;
  }
  .tile {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 10px 12px;
  }
  .tile .k { font-size: 11px; color: var(--ink-muted); text-transform: uppercase; letter-spacing: 0.04em; }
  .tile .v { font-size: 22px; font-weight: 600; margin-top: 2px; }
  .tile .u { font-size: 12px; color: var(--ink-2); font-weight: 400; }
  .tile.alert .v { color: var(--status-critical); }
  .charts { display: grid; grid-template-columns: repeat(auto-fill, minmax(300px, 1fr)); gap: 10px; }
  .chart {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 10px 12px;
  }
  .chart h2 { font-size: 12px; font-weight: 600; color: var(--ink-2); margin: 0 0 6px; }
  .chart svg { display: block; width: 100%; height: 56px; }
  .chart .now { font-size: 12px; color: var(--ink-2); margin-top: 4px; }
  #tip {
    position: fixed; display: none; pointer-events: none; z-index: 10;
    background: var(--surface-1); border: 1px solid var(--border); border-radius: 6px;
    padding: 4px 8px; font-size: 12px; color: var(--ink-1);
    box-shadow: 0 2px 8px rgba(0,0,0,0.15);
  }
  details { margin-top: 18px; }
  summary { cursor: pointer; color: var(--ink-2); font-size: 13px; }
  table { border-collapse: collapse; margin-top: 8px; background: var(--surface-1); }
  td, th {
    border: 1px solid var(--grid); padding: 4px 10px; font-size: 13px; text-align: left;
    font-variant-numeric: tabular-nums;
  }
  th { color: var(--ink-2); font-weight: 600; }
</style>
</head>
<body>
<header>
  <h1>dxbar telemetry</h1>
  <span id="conn">connecting&hellip;</span>
  <div id="progresswrap"><div id="progressbar"></div></div>
  <span id="progresstext"></span>
</header>

<div class="tiles">
  <div class="tile"><div class="k">Cycles</div><div class="v" id="t-cycles">&ndash;</div></div>
  <div class="tile"><div class="k">Cycles / s</div><div class="v" id="t-cps">&ndash;</div></div>
  <div class="tile"><div class="k">Flits ejected</div><div class="v" id="t-ejected">&ndash;</div></div>
  <div class="tile"><div class="k">Packets delivered</div><div class="v" id="t-packets">&ndash;</div></div>
  <div class="tile"><div class="k">Latency p50</div><div class="v" id="t-p50">&ndash;<span class="u"> cyc</span></div></div>
  <div class="tile"><div class="k">Latency p99</div><div class="v" id="t-p99">&ndash;<span class="u"> cyc</span></div></div>
  <div class="tile"><div class="k">In flight</div><div class="v" id="t-inflight">&ndash;</div></div>
  <div class="tile"><div class="k">Deflected</div><div class="v" id="t-deflected">&ndash;</div></div>
  <div class="tile"><div class="k">Dropped</div><div class="v" id="t-dropped">&ndash;</div></div>
  <div class="tile" id="tile-anomalies"><div class="k">Anomalies</div><div class="v" id="t-anomalies">&ndash;</div></div>
  <div class="tile"><div class="k">Shard imbalance</div><div class="v" id="t-imbalance">&ndash;</div></div>
  <div class="tile"><div class="k">Ledger records</div><div class="v" id="t-ledger">&ndash;</div></div>
</div>

<div class="charts">
  <div class="chart"><h2>Cycles per frame</h2><svg id="s-cycles" viewBox="0 0 560 56" preserveAspectRatio="none"></svg><div class="now" id="n-cycles"></div></div>
  <div class="chart"><h2>Flits ejected per frame</h2><svg id="s-ejected" viewBox="0 0 560 56" preserveAspectRatio="none"></svg><div class="now" id="n-ejected"></div></div>
  <div class="chart"><h2>Latency p99 (cycles)</h2><svg id="s-p99" viewBox="0 0 560 56" preserveAspectRatio="none"></svg><div class="now" id="n-p99"></div></div>
  <div class="chart"><h2>Flits in flight</h2><svg id="s-inflight" viewBox="0 0 560 56" preserveAspectRatio="none"></svg><div class="now" id="n-inflight"></div></div>
</div>

<div id="tip"></div>

<details>
  <summary>Latest frame as a table</summary>
  <table id="rawtable"><tbody></tbody></table>
</details>

<script>
(function () {
  "use strict";

  function $(id) { return document.getElementById(id); }

  function fmt(n) {
    if (n === undefined || n === null || isNaN(n)) { return "–"; }
    var abs = Math.abs(n);
    if (abs >= 1e9) { return (n / 1e9).toFixed(2) + "B"; }
    if (abs >= 1e6) { return (n / 1e6).toFixed(2) + "M"; }
    if (abs >= 1e4) { return (n / 1e3).toFixed(1) + "K"; }
    if (abs >= 100 || n === Math.round(n)) { return String(Math.round(n)); }
    return n.toFixed(2);
  }

  var W = 560, H = 56, PAD = 3, POINTS = 120;
  var tip = $("tip");

  // Sparkline: one series per panel (the title names it, so no legend), a
  // 2px line in the panel's fixed categorical slot, recessive baseline, and
  // a crosshair tooltip on hover.
  function sparkline(svgID, nowID, cssVar, unit) {
    var svg = $(svgID), nowEl = $(nowID);
    var data = [], seqs = [];
    var ns = "http://www.w3.org/2000/svg";

    var base = document.createElementNS(ns, "line");
    base.setAttribute("x1", 0); base.setAttribute("x2", W);
    base.setAttribute("y1", H - 1); base.setAttribute("y2", H - 1);
    base.setAttribute("stroke", "var(--baseline)");
    base.setAttribute("stroke-width", "1");
    svg.appendChild(base);

    var path = document.createElementNS(ns, "path");
    path.setAttribute("fill", "none");
    path.setAttribute("stroke", "var(" + cssVar + ")");
    path.setAttribute("stroke-width", "2");
    path.setAttribute("stroke-linejoin", "round");
    path.setAttribute("vector-effect", "non-scaling-stroke");
    svg.appendChild(path);

    var cross = document.createElementNS(ns, "line");
    cross.setAttribute("y1", 0); cross.setAttribute("y2", H);
    cross.setAttribute("stroke", "var(--grid)");
    cross.setAttribute("stroke-width", "1");
    cross.style.display = "none";
    svg.appendChild(cross);

    var dot = document.createElementNS(ns, "circle");
    dot.setAttribute("r", "4");
    dot.setAttribute("fill", "var(" + cssVar + ")");
    dot.setAttribute("stroke", "var(--surface-1)");
    dot.setAttribute("stroke-width", "2");
    dot.style.display = "none";
    svg.appendChild(dot);

    function xy(i) {
      var n = data.length;
      var lo = Math.min.apply(null, data), hi = Math.max.apply(null, data);
      if (hi === lo) { hi = lo + 1; }
      var x = n < 2 ? W : (i / (n - 1)) * W;
      var y = PAD + (1 - (data[i] - lo) / (hi - lo)) * (H - 2 * PAD);
      return [x, y];
    }

    function redraw() {
      if (data.length < 2) { path.setAttribute("d", ""); return; }
      var d = "";
      for (var i = 0; i < data.length; i++) {
        var p = xy(i);
        d += (i === 0 ? "M" : "L") + p[0].toFixed(1) + " " + p[1].toFixed(1);
      }
      path.setAttribute("d", d);
    }

    svg.addEventListener("mousemove", function (ev) {
      if (data.length < 2) { return; }
      var r = svg.getBoundingClientRect();
      var i = Math.round(((ev.clientX - r.left) / r.width) * (data.length - 1));
      i = Math.max(0, Math.min(data.length - 1, i));
      var p = xy(i);
      cross.setAttribute("x1", p[0]); cross.setAttribute("x2", p[0]);
      cross.style.display = ""; dot.style.display = "";
      dot.setAttribute("cx", p[0]); dot.setAttribute("cy", p[1]);
      tip.style.display = "block";
      tip.textContent = "frame " + seqs[i] + ": " + fmt(data[i]) + (unit ? " " + unit : "");
      tip.style.left = (ev.clientX + 12) + "px";
      tip.style.top = (ev.clientY - 10) + "px";
    });
    svg.addEventListener("mouseleave", function () {
      cross.style.display = "none"; dot.style.display = "none";
      tip.style.display = "none";
    });

    return {
      push: function (v, seq) {
        data.push(v); seqs.push(seq);
        if (data.length > POINTS) { data.shift(); seqs.shift(); }
        redraw();
        nowEl.textContent = "now " + fmt(v) + (unit ? " " + unit : "");
      }
    };
  }

  var sCycles = sparkline("s-cycles", "n-cycles", "--series-1", "cyc");
  var sEjected = sparkline("s-ejected", "n-ejected", "--series-2", "flits");
  var sP99 = sparkline("s-p99", "n-p99", "--series-3", "cyc");
  var sInflight = sparkline("s-inflight", "n-inflight", "--series-4", "flits");

  function setText(id, txt) { $(id).firstChild.nodeValue = txt; }

  // prev is the previous frame (null after an error, so a restarted server
  // does not plot a negative delta); seq numbers the frames for the tooltips.
  var prev = null, seq = 0;

  function update(s) {
    seq++;
    setText("t-cycles", fmt(s.cycles));
    setText("t-cps", fmt(s.cycles_per_second));
    setText("t-ejected", fmt(s.flits_ejected));
    setText("t-packets", fmt(s.packets_delivered));
    setText("t-p50", fmt(s.latency_p50_cycles));
    setText("t-p99", fmt(s.latency_p99_cycles));
    setText("t-inflight", fmt(s.in_flight_flits));
    setText("t-deflected", fmt(s.flits_deflected));
    setText("t-dropped", fmt(s.flits_dropped));
    setText("t-imbalance", s.shard_imbalance ? s.shard_imbalance.toFixed(3) : "–");
    setText("t-ledger", fmt(s.ledger_records));
    var anom = $("tile-anomalies");
    if (s.anomalies > 0) {
      anom.classList.add("alert");
      setText("t-anomalies", "⚠ " + fmt(s.anomalies));
    } else {
      anom.classList.remove("alert");
      setText("t-anomalies", fmt(s.anomalies));
    }

    var p = s.progress || {};
    if (p.total > 0) {
      $("progressbar").style.width = Math.min(100, p.percent).toFixed(1) + "%";
      var eta = p.eta_seconds > 0 ? " · ETA " + Math.round(p.eta_seconds) + "s" : "";
      $("progresstext").textContent =
        p.percent.toFixed(1) + "% of " + fmt(p.total) + " " + (p.unit || "cycles") + eta;
    }

    if (prev) {
      sCycles.push(s.cycles - prev.cycles, seq);
      sEjected.push(s.flits_ejected - prev.flits_ejected, seq);
    }
    prev = s;
    sP99.push(s.latency_p99_cycles, seq);
    sInflight.push(s.in_flight_flits, seq);

    var rows = "";
    var keys = Object.keys(s).sort();
    for (var i = 0; i < keys.length; i++) {
      var k = keys[i];
      if (k === "progress") { continue; }
      rows += "<tr><th>" + k + "</th><td>" + s[k] + "</td></tr>";
    }
    $("rawtable").tBodies[0].innerHTML = rows;
  }

  var conn = $("conn");
  function poll() {
    fetch("/live", { cache: "no-store" })
      .then(function (r) {
        if (!r.ok) { throw new Error("HTTP " + r.status); }
        return r.json();
      })
      .then(function (s) {
        conn.textContent = "live"; conn.classList.remove("down");
        update(s);
      })
      .catch(function () {
        prev = null;
        conn.textContent = "disconnected — retrying"; conn.classList.add("down");
      })
      .then(function () { setTimeout(poll, 1000); });
  }
  poll();
})();
</script>
</body>
</html>
`
