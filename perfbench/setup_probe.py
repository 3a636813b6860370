"""One set-up sample: a fresh interpreter imports tantheta from the checkout
and runs the warm-up trial. The runner times this whole process."""
import bench_env

if __name__ == "__main__":
    bench_env.pin_threads()
    bench_env.warm_up(bench_env.import_tantheta())
