#!/usr/bin/env python3
"""End-to-end smoke gates for LightRidge's command-line tools.

Each subcommand drives the built tools through one flow, in a fresh
temporary directory, and exits 1 when a gate fails:

  examples    quickstart, and lightridge_run on the bundled minimal spec
  data        lightridge_data pack/validate, then training streamed from
              the shards against the preloaded twin (bitwise parity)
  robustness  vaccinated vs. nominal training under lateral misalignment
  serve       train -> checkpoint -> lightridge_serve over a request
              stream, an HTTP socket and a 2-member ensemble

Usage (stdlib only):
  tools/smoke.py {examples,data,robustness,serve} --build DIR

DIR holds the built tools. ctest runs each subcommand as smoke_<name>.
"""

import argparse
import collections
import http.client
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SPECS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"
BUILD = pathlib.Path()  # set by main()
CHANCE = 0.1            # ten digit classes


class GateError(Exception):
    pass


def check(condition, message):
    if not condition:
        raise GateError(message)


def command(tool, args):
    return [str(BUILD / tool)] + [str(a) for a in args]


def run(tool, *args):
    """Runs a built tool; a non-zero exit fails the smoke test."""
    cmd = command(tool, args)
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def expect_exit(code, name, tool, *args):
    """Runs a tool that must exit `code` with `name` in its stderr."""
    cmd = command(tool, args)
    print("+", " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stderr=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stderr)
    check(proc.returncode == code,
          f"{tool}: expected exit {code}, got {proc.returncode}")
    check(name in proc.stderr, f"{tool}: error must name {name}")


def load(path):
    with open(path) as f:
        return json.load(f)


def dump(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f)


def read_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def sample(index):
    return {"dataset": "digits", "seed": 33, "index": index}


def write_serve_inputs(stem, models, targets, count, batching=None):
    """Writes <stem>_manifest.json, serving `models`, and
    <stem>_requests.jsonl: `count` digits sample requests to each model
    named in `targets`, in turn, with ids numbered over all of them."""
    manifest = {"models": models}
    if batching is not None:
        manifest["batching"] = batching
    dump(manifest, f"{stem}_manifest.json")
    requests = [(model, k) for model in targets for k in range(count)]
    with open(f"{stem}_requests.jsonl", "w") as f:
        for i, (model, k) in enumerate(requests):
            f.write(json.dumps({"id": i, "model": model,
                                "sample": sample(k)}) + "\n")


def accuracy(responses):
    hits = sum(r["prediction"] == r["label"] for r in responses)
    return hits / len(responses)


# ---- examples ---------------------------------------------------------

def smoke_examples():
    run("quickstart", "--size=32", "--depth=2", "--epochs=1", "--train=200")
    run("lightridge_run", SPECS / "digits_tiny.json",
        "--out=digits_tiny_results.json")
    expect_exit(1, "epochs", "quickstart", "--epochs=abc")

    report = load("digits_tiny_results.json")
    acc = report["final"]["accuracy"]
    chance = report["final"]["chance"]
    print(f"accuracy={acc:.3f} chance={chance:.3f} "
          f"epochs={len(report['epochs'])}")
    check(report["spec"]["name"] == "digits_tiny", report["spec"]["name"])
    check(len(report["epochs"]) == report["spec"]["train"]["epochs"],
          "one report row per epoch")
    check(acc > 2 * chance, f"accuracy {acc} not above chance {chance}")


# ---- data -------------------------------------------------------------

def smoke_data():
    run("lightridge_data", "pack", "--dataset=digits",
        "--out=packed/digits_train", "--samples=96", "--seed=7",
        "--image-size=32", "--shards=3")
    run("lightridge_data", "pack", "--dataset=digits",
        "--out=packed/digits_test", "--samples=32", "--seed=8",
        "--image-size=32", "--shards=1")
    # The seg and rgb record layouts.
    for dataset, split in (("city", "city_train"), ("scenes", "scenes_train")):
        run("lightridge_data", "pack", f"--dataset={dataset}",
            f"--out=packed/{split}", "--samples=24", "--seed=7",
            "--image-size=16", "--shards=3")
    for split in ("digits_train", "digits_test", "city_train",
                  "scenes_train"):
        run("lightridge_data", "validate", f"packed/{split}/manifest.json")

    # Flip one payload byte past the 56-byte shard header.
    shutil.copytree("packed/digits_train", "packed/corrupt")
    with open("packed/corrupt/shard_00001.bin", "r+b") as f:
        f.seek(100)
        f.write(b"\xff")
    expect_exit(2, "shard_00001.bin", "lightridge_data", "validate",
                "packed/corrupt/manifest.json")
    expect_exit(1, "samples", "lightridge_data", "pack", "--dataset=digits",
                "--out=packed/bad_flag", "--samples=-1")

    run("lightridge_run", SPECS / "digits_stream_tiny.json", "--workers=2",
        "--out=streamed_results.json")
    run("lightridge_run", SPECS / "digits_stream_tiny_preload.json",
        "--workers=2", "--out=preload_results.json")

    streamed = load("streamed_results.json")
    preload = load("preload_results.json")
    ex = streamed["execution"]
    check(ex["data_source"] == "sharded", ex)
    check(ex["data_shards"] == 3, ex)
    check(ex["data_bytes_read"] > 0, ex)
    check(preload["execution"]["data_source"] == "memory",
          preload["execution"])

    def epoch_losses(report):
        # Mid-epoch dev snapshots (streamed spec only) are extra rows;
        # parity is over the per-epoch training entries.
        return [e["train_loss"] for e in report["epochs"]
                if not e.get("mid_epoch")]

    s_loss, p_loss = epoch_losses(streamed), epoch_losses(preload)
    mids = sum(1 for e in streamed["epochs"] if e.get("mid_epoch"))
    acc = streamed["final"]["accuracy"]
    chance = streamed["final"]["chance"]
    print(f"streamed acc={acc:.3f} chance={chance:.3f} losses={s_loss} "
          f"mid_snapshots={mids} bytes_read={ex['data_bytes_read']}")
    check(mids > 0, "dev_eval_every_batches produced no snapshots")
    check(s_loss == p_loss,
          f"streamed {s_loss} != preloaded {p_loss} (bitwise gate)")
    check(acc == preload["final"]["accuracy"], "final accuracy must match")
    check(acc > 1.5 * chance, f"accuracy {acc} not above chance {chance}")


# ---- robustness -------------------------------------------------------

def lateral_curve(path):
    report = load(path)
    rb = report["robustness"]
    curve = rb["curves"]["lateral"]
    accs = [p["accuracy"] for p in curve]
    print(f"{report['spec']['name']}: clean={rb['clean_accuracy']:.3f} "
          f"lateral={[f'{a:.3f}' for a in accs]} "
          f"mean={sum(accs) / len(accs):.3f}")
    return curve


def smoke_robustness():
    run("lightridge_run", SPECS / "digits_tiny.json", "--robustness-sweep",
        "--workers=1", "--out=nominal_results.json")
    run("lightridge_run", SPECS / "digits_vaccinated_tiny.json",
        "--robustness-sweep", "--workers=1", "--out=vaccinated_results.json")

    nominal = lateral_curve("nominal_results.json")
    vaccinated = lateral_curve("vaccinated_results.json")
    check(len(nominal) == len(vaccinated) >= 3,
          f"curve lengths {len(nominal)} and {len(vaccinated)}")
    for n, v in zip(nominal, vaccinated):
        check(n["value"] == v["value"], (n, v))
    # The point of vaccination: no worse at the largest tested
    # misalignment, and no worse on average over the sweep.
    n_max, v_max = nominal[-1]["accuracy"], vaccinated[-1]["accuracy"]
    n_mean = sum(p["accuracy"] for p in nominal) / len(nominal)
    v_mean = sum(p["accuracy"] for p in vaccinated) / len(vaccinated)
    check(v_max >= n_max,
          f"vaccinated {v_max:.3f} < nominal {n_max:.3f} at max shift")
    check(v_mean >= n_mean,
          f"vaccinated mean {v_mean:.3f} < nominal mean {n_mean:.3f}")
    print(f"gates pass: at-max {v_max:.3f} >= {n_max:.3f}, "
          f"mean {v_mean:.3f} >= {n_mean:.3f}")


# ---- serve ------------------------------------------------------------

def serve_socket():
    """Serves serve_manifest.json over HTTP, 64 requests on one
    keep-alive connection, then gates the SIGTERM shutdown."""
    server = subprocess.Popen(command("lightridge_serve", [
        "serve_manifest.json", "--listen=127.0.0.1:0",
        "--port-file=serve_port.txt", "--stats=serve_socket_stats.json",
        "--quota=128", "--quiet"]))
    try:
        # Wait for the ephemeral port to be published.
        for _ in range(200):
            check(server.poll() is None,
                  f"server exited {server.returncode} before serving")
            try:
                with open("serve_port.txt") as f:
                    port = int(f.read().strip())
                break
            except (FileNotFoundError, ValueError):
                time.sleep(0.1)
        else:
            raise GateError("server never published its port")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/healthz")
        check(conn.getresponse().read() == b"ok\n", "/healthz")
        responses = []
        for i in range(64):
            body = json.dumps({"id": i, "deadline_ms": 30000,
                               "priority": "interactive",
                               "sample": sample(i)})
            conn.request("POST", "/v1/models/digits/infer", body,
                         {"Content-Type": "application/json"})
            r = conn.getresponse()
            payload = r.read()
            check(r.status == 200, (r.status, payload))
            responses.append(json.loads(payload))
        check(len(responses) == 64, len(responses))
        check(all(r["status"] == "ok" for r in responses), responses)
        acc = accuracy(responses)
        conn.request("GET", "/metrics")
        metrics = conn.getresponse().read().decode()
        conn.close()
        check('lightridge_requests_total{status="ok"} 64' in metrics,
              "/metrics must count 64 ok requests")
        print(f"socket served=64 acc={acc:.3f}")
        check(acc > 2 * CHANCE, f"accuracy {acc} not above chance")

        # Clean shutdown: SIGTERM must drain, print stats, and exit 0.
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=60)
        check(code == 0, f"server exited {code} after SIGTERM")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    stats = load("serve_socket_stats.json")
    check(stats["requests"] == 64, stats)
    check(stats["failed"] == 0, stats)
    # 1 healthz + 64 infers + 1 metrics over one keep-alive connection.
    check(stats["transport"]["http_requests"] == 66, stats)
    check(stats["transport"]["parse_errors"] == 0, stats)
    print("clean shutdown:", stats)


def expect_bad_manifest(key, manifest, requests):
    """lightridge_serve must refuse `manifest` with exit 2 naming `key`."""
    dump(manifest, "bad_manifest.json")
    expect_exit(2, key, "lightridge_serve", "bad_manifest.json",
                f"--requests={requests}", "--out=bad_responses.jsonl")


def smoke_serve():
    run("lightridge_run", SPECS / "digits_tiny.json",
        "--out=digits_tiny_results.json",
        "--save-model=digits_tiny_ckpt.json", "--workers=2", "--quiet")
    digits = {"name": "digits", "checkpoint": "digits_tiny_ckpt.json"}
    write_serve_inputs("serve", [digits], ["digits"], 64, {"max_batch": 32})
    run("lightridge_serve", "serve_manifest.json",
        "--requests=serve_requests.jsonl", "--out=serve_responses.jsonl",
        "--stats=serve_stats.json", "--no-logits")

    expect_bad_manifest("max_batch", {"models": [digits],
                                      "batching": {"max_batch": -1}},
                        "serve_requests.jsonl")
    expect_exit(1, "max-batch", "lightridge_serve", "serve_manifest.json",
                "--requests=serve_requests.jsonl",
                "--out=bad_responses.jsonl", "--max-batch=-1")

    # A misspelt checkpoint layer key.
    with open("digits_tiny_ckpt.json") as f:
        text = f.read()
    with open("misspelt_ckpt.json", "w") as f:
        f.write(text.replace('"gamma"', '"gama"'))
    expect_bad_manifest("gama", {"models": [dict(
        digits, checkpoint="misspelt_ckpt.json")],
        "batching": {"max_batch": 32}}, "serve_requests.jsonl")

    # A checkpoint whose skip interior holds a layernorm.
    spec = load(SPECS / "digits_tiny.json")
    spec["name"] = "digits_skip_norm_tiny"
    spec["layers"] = [{"kind": "skip", "inner": [
        {"kind": "diffractive", "count": 2}, {"kind": "layernorm"}]}]
    spec["train"]["epochs"] = 1
    dump(spec, "digits_skip_norm_tiny.json")
    write_serve_inputs("skip_norm", [{"name": "skipnorm",
                                      "checkpoint": "skip_norm_ckpt.json"}],
                       ["skipnorm"], 16)
    run("lightridge_run", "digits_skip_norm_tiny.json",
        "--out=skip_norm_results.json", "--save-model=skip_norm_ckpt.json",
        "--quiet")
    run("lightridge_serve", "skip_norm_manifest.json",
        "--requests=skip_norm_requests.jsonl",
        "--out=skip_norm_responses.jsonl", "--no-logits")
    responses = read_lines("skip_norm_responses.jsonl")
    check(len(responses) == 16, f"{len(responses)} responses != 16")
    check(all(r["status"] == "ok" for r in responses), responses)
    print(f"skip+layernorm checkpoint served={len(responses)}")

    # The request stream: count match + accuracy above chance.
    responses = read_lines("serve_responses.jsonl")
    stats = load("serve_stats.json")
    check(len(responses) == 64, f"{len(responses)} responses != 64")
    check(stats["requests"] == 64, stats)
    check(stats["failed"] == 0, stats)
    acc = accuracy(responses)
    print(f"served={len(responses)} acc={acc:.3f} "
          f"mean_batch={stats['mean_batch']:.1f} "
          f"throughput={stats['throughput_rps']:.0f} rps")
    check(acc > 2 * CHANCE, f"accuracy {acc} not above chance")

    serve_socket()

    # A 2-member differential-detection ensemble must beat its members.
    for member, spec_file in (("member_a", "digits_diffdet_tiny.json"),
                              ("member_b", "digits_diffdet_tiny_b.json")):
        run("lightridge_run", SPECS / spec_file,
            f"--out={member}_results.json",
            f"--save-model={member}_ckpt.json", "--workers=2", "--quiet")
    members = [{"name": m, "checkpoint": f"{m}_ckpt.json"}
               for m in ("member_a", "member_b")]
    duo = {"name": "duo", "kind": "ensemble",
           "members": ["member_a", "member_b"], "fusion": "mean_probs"}
    write_serve_inputs("ensemble", members + [duo],
                       ["member_a", "member_b", "duo"], 64,
                       {"max_batch": 32})
    run("lightridge_serve", "ensemble_manifest.json",
        "--requests=ensemble_requests.jsonl",
        "--out=ensemble_responses.jsonl", "--stats=ensemble_stats.json",
        "--no-logits")
    stats = load("ensemble_stats.json")
    by = collections.defaultdict(list)
    for r in read_lines("ensemble_responses.jsonl"):
        by[r["model"]].append(r)
    acc = {}
    for model, rs in sorted(by.items()):
        check(len(rs) == 64, (model, len(rs)))
        check(all(r["status"] == "ok" for r in rs), model)
        acc[model] = accuracy(rs)
    print(f"accuracy: {acc}  ensembles={stats['ensembles']} "
          f"fan_out={stats['fan_out']}")
    check(stats["ensembles"] == 64, stats)
    check(stats["fan_out"] == 128, stats)
    check(all(r["fan_out"] == 2 for r in by["duo"]),
          "fused responses must report their fan-out")
    check(acc["duo"] >= acc["member_a"], acc)
    check(acc["duo"] >= acc["member_b"], acc)

    # A misspelt or conflicting manifest key is an error, not a default.
    fuson = {k: v for k, v in duo.items() if k != "fusion"}
    fuson["fuson"] = "vote"
    expect_bad_manifest("fuson", {"models": members + [fuson]},
                        "ensemble_requests.jsonl")
    expect_bad_manifest("batchng", {"models": [digits],
                                    "batchng": {"max_batch": 32}},
                        "serve_requests.jsonl")
    expect_bad_manifest("ensembel", {"models": [dict(digits,
                                                     kind="ensembel")]},
                        "serve_requests.jsonl")
    expect_bad_manifest("spec", {"models": [dict(
        digits, spec=str(SPECS / "digits_tiny.json"))]},
        "serve_requests.jsonl")


SUBCOMMANDS = {
    "examples": smoke_examples,
    "data": smoke_data,
    "robustness": smoke_robustness,
    "serve": smoke_serve,
}


def main(argv=None):
    global BUILD
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--build", required=True,
                        help="directory holding the built tools")
    args = parser.parse_args(argv)
    BUILD = pathlib.Path(args.build).resolve()
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix=f"smoke_{args.job}_") as work:
        os.chdir(work)
        try:
            SUBCOMMANDS[args.job]()
        except (GateError, subprocess.CalledProcessError) as e:
            print(f"smoke {args.job}: FAIL: {e}", file=sys.stderr)
            return 1
        finally:
            os.chdir(home)
    print(f"smoke {args.job}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
