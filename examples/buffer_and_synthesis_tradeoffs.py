"""Explore the two on-device resource trade-offs the paper evaluates.

Part A (Table 3 analogue): how does the buffer size (number of 22 KB bins)
affect the personalization quality on a medical-assistant stream, with the
learning rate scaled ∝ √batch size?

Part B (Figure 3 analogue): how does the number of synthesized dialogue sets
per buffered original trade off ROUGE-1 against fine-tuning time per epoch?

Run with ``python examples/buffer_and_synthesis_tradeoffs.py``.
"""

from repro.core.buffer import buffer_size_kb
from repro.experiments import prepare_environment, run_method, smoke_scale
from repro.nn.optim import sqrt_batch_scaled_lr


def buffer_size_sweep() -> None:
    scale = smoke_scale()
    env = prepare_environment("meddialog", scale=scale, seed=0)
    print("Part A — buffer-size sweep (proposed selection policy)")
    print(f"{'bins':>6} {'size':>10} {'lr':>10} {'ROUGE-1':>10}")
    for bins in scale.buffer_bins_sweep:
        learning_rate = sqrt_batch_scaled_lr(
            scale.learning_rate, base_batch_size=scale.buffer_bins, batch_size=bins
        )
        result = run_method(env, "ours", buffer_bins=bins, learning_rate=learning_rate)
        print(
            f"{bins:>6d} {buffer_size_kb(bins):>8.0f}KB "
            f"{learning_rate:>10.4f} {result.final_rouge:>10.4f}"
        )


def synthesis_sweep() -> None:
    scale = smoke_scale()
    env = prepare_environment("meddialog", scale=scale, seed=1)
    print("\nPart B — synthesis-count sweep (proposed selection policy)")
    print(f"{'#generated':>12} {'ROUGE-1':>10} {'sec/epoch':>12}")
    for count in scale.synthesis_sweep:
        result = run_method(env, "ours", synthesis_per_item=count)
        seconds = [report.seconds_per_epoch for report in result.finetune_reports]
        mean_seconds = sum(seconds) / len(seconds) if seconds else 0.0
        print(f"{count:>12d} {result.final_rouge:>10.4f} {mean_seconds:>12.3f}")


if __name__ == "__main__":
    buffer_size_sweep()
    synthesis_sweep()
