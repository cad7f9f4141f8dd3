"""Every 3-dimensional rational Lie algebra type and its nice-basis count."""

from nicebasis import catalog, classify3, fixtures
from nicebasis.linalg import Matrix
from nicebasis.scalars import Q


def main():
    print("%-20s %-4s %s" % ("algebra", "nu", "parameter"))
    for e in catalog():
        param = "" if e.parameter is None else str(e.parameter)
        print("%-20s %-4d %s" % (e.name, e.nu, param))

    # classification is basis independent
    shuffle = Matrix.from_columns(
        [(Q(1), Q(2), Q(0)), (Q(0), Q(1), Q(1)), (Q(1), Q(0), Q(1))]
    )
    scrambled = fixtures.sl2().change_basis(shuffle)
    entry = classify3(scrambled)
    print()
    print("scrambled sl2 classifies as %s with nu=%d" % (entry.name, entry.nu))


if __name__ == "__main__":
    main()
