import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs the whole benchmark")
