"""The generators of the kernel mod m read off `integer_diagonalize`'s
diagonal form: the builder the modular separator first looped over, kept
here as the reference the library's direct construction is compared with."""

from math import gcd


def modular_kernel_generators(diag, V, dim, m):
    """Generators of { c in (Z/m)^dim : rows . c = 0 (mod m) }.

    `diag`, `V` come from `integer_diagonalize`.  Every solution is a
    Z/m-combination of the returned generators.
    """
    gens = []
    for j in range(dim):
        s = diag[j] if j < len(diag) else 0
        if s == 0:
            step = 1
        else:
            step = m // gcd(s, m)
            if step % m == 0:
                continue  # only y_j = 0 (mod m)
        gen = tuple((V[i][j] * step) % m for i in range(dim))
        if any(gen):
            gens.append(gen)
    return gens
