"""diraclab: exact and numerically certified Poisson/Dirac geometry on charts."""
