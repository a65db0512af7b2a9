"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed from outside the package around public paravox
functions and methods. Each call records one span: name, start, end,
parent span and operation id (a synthesis request or a training step).
Spans stay in memory and are written once, after measuring.

A function is patched at every module that binds it, because several
modules import by name (`pipeline/infer.py` binds `sample_mel`,
`pipeline/train.py` binds `gradients`, `nn` and `flow` bind `gelu` and
`softmax`). A method is patched on its class. `uninstall` restores
every original object, so an untraced phase runs the program as is.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from types import ModuleType


def _positions(model, emb, *args, **kwargs):
    """Trunk positions in one `forward_states` call: batch x sequence length."""
    n = 1
    for d in emb.shape[:-1]:
        n *= int(d)
    return "ar.forward_states.positions", n


def _tape_nodes(loss, params):
    """Op nodes recorded on the tape behind `loss` (leaves not counted)."""
    seen = set()
    stack = [loss]
    n = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._grad_fn is not None:
            n += 1
        stack.extend(t._parents)
    return "engine.tape_nodes", n


def targets():
    """(span name, owner, attribute, counter) for every traced call site."""
    from paravox import ar, engine, flow, frontend, nar, nn, rvq, tokenizer
    from paravox.pipeline import checkpoint, infer, train

    return [
        ("frontend.generate_corpus", frontend, "generate_corpus", None),
        ("checkpoint.save", checkpoint, "save_checkpoint", None),
        ("checkpoint.load", checkpoint, "load_checkpoint", None),
        ("pipeline.load_pipeline", infer, "load_pipeline", None),
        ("pipeline.infer", infer, "infer", None),
        ("pipeline.train_stage", train, "train_stage", None),
        ("train.adam", train.Adam, "step", None),
        ("engine.gradients", engine, "gradients", _tape_nodes),
        ("tokenizer.encode_speech", tokenizer.ParallelTokenizer, "encode_speech", None),
        ("tokenizer.decode_tokens", tokenizer.ParallelTokenizer, "decode_tokens", None),
        ("rvq.encode", rvq.RVQStack, "encode", None),
        ("rvq.train_step", rvq.RVQStack, "train_step", None),
        ("ar.generate", ar.DualStreamAR, "generate", None),
        ("ar.forward_states", ar.DualStreamAR, "forward_states", _positions),
        ("nar.complete_tokens", nar.CoupledNAR, "complete_tokens", None),
        ("nar.predict", nar.CoupledStage, "predict", None),
        ("flow.sample_mel", flow, "sample_mel", None),
        ("flow.field", flow.VelocityField, "__call__", None),
        ("nn.block", nn.TransformerBlock, "__call__", None),
        ("nn.attention", nn.MultiHeadAttention, "__call__", None),
        ("nn.linear", nn.Linear, "__call__", None),
        ("nn.layer_norm", nn.LayerNorm, "__call__", None),
        ("engine.gelu", engine, "gelu", None),
        ("engine.softmax", engine, "softmax", None),
        ("engine.embedding", engine, "embedding", None),
        ("engine.cross_entropy", engine, "cross_entropy", None),
    ]


def _binding_sites(module: ModuleType, attr: str):
    """Every loaded paravox module attribute bound to `module.attr`."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "paravox" or name.startswith("paravox.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                yield mod, key


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start s, end s, parent span index or -1, op id, self s)
        self.spans: list = []
        self.op_tags: list[str] = []
        self.op = -1
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list = []
        self._patches: list = []

    def new_op(self, tag: str) -> int:
        """Start a new operation; later spans carry its id."""
        self.op_tags.append(tag)
        self.op = len(self.op_tags) - 1
        return self.op

    def install(self) -> None:
        for name, owner, attr, counter in targets():
            if isinstance(owner, type):
                sites = [(owner, attr)]
                original = owner.__dict__[attr]
            else:
                sites = list(_binding_sites(owner, attr))
                original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapped)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, counter):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if counter is not None:
                key, n = counter(*args, **kwargs)
                key = (key, tracer.op_tags[op])
                counts[key] = counts.get(key, 0) + n
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            child = [0.0]
            stack.append((sid, child))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1][0] += t1 - t0
                spans[sid] = (nid, t0, t1, parent, op, t1 - t0 - child[0])

        return traced

    def totals(self, tags) -> dict[str, list]:
        """name -> [calls, inclusive s, self s] over spans of ops tagged in `tags`."""
        out: dict[str, list] = {}
        names, op_tags = self.names, self.op_tags
        for nid, t0, t1, _, op, self_s in self.spans:
            if op_tags[op] in tags:
                row = out.setdefault(names[nid], [0, 0.0, 0.0])
                row[0] += 1
                row[1] += t1 - t0
                row[2] += self_s
        return out

    def count(self, key: str, tags) -> int:
        return sum(n for (k, tag), n in self.counts.items() if k == key and tag in tags)

    def child_cover(self, parent_name: str, child_names) -> tuple[float, float]:
        """(summed duration of `parent_name` spans, summed duration of their
        direct children named in `child_names`)."""
        names, spans = self.names, self.spans
        parent_total = covered = 0.0
        for nid, t0, t1, parent, _, _ in spans:
            name = names[nid]
            if name == parent_name:
                parent_total += t1 - t0
            elif name in child_names and parent >= 0 and names[spans[parent][0]] == parent_name:
                covered += t1 - t0
        return parent_total, covered

    def write(self, path) -> None:
        """Spans as gzipped JSON lines after one header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "op_tags": self.op_tags,
                                 "fields": ["name", "start_s", "end_s", "parent", "op", "self_s"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
